package tablegen

import (
	"fmt"
	"sort"

	"ggcg/internal/cgram"
)

// sym is a grammar symbol reference: terminal or nonterminal id.
type sym struct {
	term bool
	id   int32
}

// iprod is a production with interned symbols. Production 0 is the
// augmented rule start' -> start.
type iprod struct {
	lhs int32
	rhs []sym
}

// item is an LR(0) item: production index and dot position.
type item uint32

func mkItem(prod, dot int) item { return item(prod)<<8 | item(dot) }
func (it item) prod() int       { return int(it >> 8) }
func (it item) dot() int        { return int(it & 0xff) }

type state struct {
	kernel  []item
	closure []item
	// shift/goto successors, keyed by symbol.
	termSucc map[int32]int32
	ntSucc   map[int32]int32
}

type builder struct {
	g      *cgram.Grammar
	opt    Options
	tables *Tables

	prods      []iprod
	prodsByLHS [][]int32 // nonterminal id -> production indices

	first  [][]bool // [nt][term]
	follow [][]bool // [nt][term+end]

	states      []*state
	kernelIndex map[string]int32

	choiceIndex map[string]int32
}

func newBuilder(g *cgram.Grammar, opt Options) (*builder, error) {
	t := newTables(g)
	b := &builder{g: g, opt: opt, tables: t}

	// Intern productions; index 0 is the augmented rule.
	startNT := int32(t.ntID[g.Start])
	augNT := int32(len(t.Nonterms) - 1)
	b.prods = make([]iprod, 0, len(g.Prods)+1)
	b.prods = append(b.prods, iprod{lhs: augNT, rhs: []sym{{term: false, id: startNT}}})
	for _, p := range g.Prods {
		ip := iprod{lhs: int32(t.ntID[p.LHS])}
		for _, s := range p.RHS {
			if cgram.IsTerminal(s) {
				ip.rhs = append(ip.rhs, sym{term: true, id: int32(t.termID[s])})
			} else {
				ip.rhs = append(ip.rhs, sym{term: false, id: int32(t.ntID[s])})
			}
		}
		if len(ip.rhs) > 250 {
			return nil, fmt.Errorf("tablegen: production %d too long", p.Index)
		}
		b.prods = append(b.prods, ip)
	}
	if len(b.prods) >= 1<<24 {
		return nil, fmt.Errorf("tablegen: too many productions")
	}

	b.prodsByLHS = make([][]int32, len(t.Nonterms))
	for i, p := range b.prods {
		b.prodsByLHS[p.lhs] = append(b.prodsByLHS[p.lhs], int32(i))
	}
	b.computeFirst()
	b.computeFollow()
	b.kernelIndex = make(map[string]int32)
	b.choiceIndex = make(map[string]int32)
	return b, nil
}

// computeFirst computes FIRST sets for nonterminals. Machine description
// grammars have no empty productions, so no nullability handling is needed.
func (b *builder) computeFirst() {
	nNT, nT := len(b.tables.Nonterms), len(b.tables.Terms)
	b.first = make([][]bool, nNT)
	for i := range b.first {
		b.first[i] = make([]bool, nT)
	}
	for changed := true; changed; {
		changed = false
		for _, p := range b.prods {
			head := p.rhs[0]
			if head.term {
				if !b.first[p.lhs][head.id] {
					b.first[p.lhs][head.id] = true
					changed = true
				}
				continue
			}
			for t, in := range b.first[head.id] {
				if in && !b.first[p.lhs][t] {
					b.first[p.lhs][t] = true
					changed = true
				}
			}
		}
	}
}

// computeFollow computes SLR FOLLOW sets; index len(Terms) is the end
// marker.
func (b *builder) computeFollow() {
	nNT, nT := len(b.tables.Nonterms), len(b.tables.Terms)
	b.follow = make([][]bool, nNT)
	for i := range b.follow {
		b.follow[i] = make([]bool, nT+1)
	}
	aug := len(b.tables.Nonterms) - 1
	b.follow[aug][nT] = true
	for changed := true; changed; {
		changed = false
		for _, p := range b.prods {
			for i, s := range p.rhs {
				if s.term {
					continue
				}
				if i+1 < len(p.rhs) {
					next := p.rhs[i+1]
					if next.term {
						if !b.follow[s.id][next.id] {
							b.follow[s.id][next.id] = true
							changed = true
						}
					} else {
						for t, in := range b.first[next.id] {
							if in && !b.follow[s.id][t] {
								b.follow[s.id][t] = true
								changed = true
							}
						}
					}
				} else {
					for t, in := range b.follow[p.lhs] {
						if in && !b.follow[s.id][t] {
							b.follow[s.id][t] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

// closure computes the LR(0) closure of a kernel. The improved constructor
// expands nonterminals through the by-LHS production index; the naive one
// rescans the whole production list for every pending item, which is the
// dominant cost in the "two hours of VAX CPU time" configuration (§7).
func (b *builder) closure(kernel []item) []item {
	seen := make(map[item]bool, len(kernel)*4)
	out := make([]item, 0, len(kernel)*4)
	var work []item
	for _, it := range kernel {
		seen[it] = true
		out = append(out, it)
		work = append(work, it)
	}
	addProd := func(p int32) {
		it := mkItem(int(p), 0)
		if !seen[it] {
			seen[it] = true
			out = append(out, it)
			work = append(work, it)
		}
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		b.tables.Stats.ClosureOps++
		p := b.prods[it.prod()]
		if it.dot() >= len(p.rhs) {
			continue
		}
		next := p.rhs[it.dot()]
		if next.term {
			continue
		}
		if b.opt.Naive {
			for i, q := range b.prods {
				b.tables.Stats.ClosureOps++
				if q.lhs == next.id {
					addProd(int32(i))
				}
			}
		} else {
			for _, i := range b.prodsByLHS[next.id] {
				addProd(i)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func kernelKey(kernel []item) string {
	buf := make([]byte, 0, len(kernel)*4)
	for _, it := range kernel {
		buf = append(buf, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(buf)
}

// findOrAddState returns the state with the given kernel, creating it if
// new. The improved constructor hashes kernels; the naive first-cut one
// recomputes the candidate's full closure and compares it linearly against
// every existing state's closure — the dominant cost of the configuration
// that took over two hours of VAX CPU time (§7).
func (b *builder) findOrAddState(kernel []item) (int32, bool) {
	if b.opt.Naive {
		closure := b.closure(kernel)
		for i, s := range b.states {
			b.tables.Stats.ClosureOps += len(s.closure)
			if itemsEqual(s.closure, closure) {
				return int32(i), false
			}
		}
		st := &state{
			kernel:   kernel,
			closure:  closure,
			termSucc: make(map[int32]int32),
			ntSucc:   make(map[int32]int32),
		}
		b.states = append(b.states, st)
		return int32(len(b.states) - 1), true
	}
	if i, ok := b.kernelIndex[kernelKey(kernel)]; ok {
		return i, false
	}
	s := &state{
		kernel:   kernel,
		closure:  b.closure(kernel),
		termSucc: make(map[int32]int32),
		ntSucc:   make(map[int32]int32),
	}
	b.states = append(b.states, s)
	id := int32(len(b.states) - 1)
	b.kernelIndex[kernelKey(kernel)] = id
	return id, true
}

func itemsEqual(a, b []item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildStates runs the canonical LR(0) collection construction.
func (b *builder) buildStates() {
	start, _ := b.findOrAddState([]item{mkItem(0, 0)})
	work := []int32{start}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		s := b.states[id]
		// Group closure items by the symbol after the dot.
		type key struct {
			term bool
			id   int32
		}
		succ := make(map[key][]item)
		var order []key
		for _, it := range s.closure {
			p := b.prods[it.prod()]
			if it.dot() >= len(p.rhs) {
				continue
			}
			next := p.rhs[it.dot()]
			k := key{next.term, next.id}
			if _, ok := succ[k]; !ok {
				order = append(order, k)
			}
			succ[k] = append(succ[k], mkItem(it.prod(), it.dot()+1))
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i].term != order[j].term {
				return order[i].term
			}
			return order[i].id < order[j].id
		})
		for _, k := range order {
			kernel := succ[k]
			sort.Slice(kernel, func(i, j int) bool { return kernel[i] < kernel[j] })
			to, isNew := b.findOrAddState(kernel)
			if k.term {
				s.termSucc[k.id] = to
			} else {
				s.ntSucc[k.id] = to
			}
			if isNew {
				work = append(work, to)
			}
		}
	}
	b.tables.Stats.States = len(b.states)
}

// fillTables converts the automaton into ACTION/GOTO tables, applying the
// paper's disambiguation rules and recording diagnostics.
func (b *builder) fillTables() {
	t := b.tables
	nT, nNT := len(t.Terms), len(t.Nonterms)
	end := nT
	t.Action = make([][]Action, len(b.states))
	t.Goto = make([][]int32, len(b.states))
	for si, s := range b.states {
		arow := make([]Action, nT+1)
		grow := make([]int32, nNT)
		for i := range grow {
			grow[i] = -1
		}
		for ntid, to := range s.ntSucc {
			grow[ntid] = to
		}
		// Gather reduce candidates per lookahead.
		cands := make(map[int][]int32)
		accept := false
		for _, it := range s.closure {
			p := b.prods[it.prod()]
			if it.dot() < len(p.rhs) {
				continue
			}
			if it.prod() == 0 {
				accept = true
				continue
			}
			for term, in := range b.follow[p.lhs] {
				if in {
					cands[term] = append(cands[term], int32(it.prod()))
				}
			}
		}
		for term := 0; term <= nT; term++ {
			var shiftTo int32 = -1
			if term < nT {
				if to, ok := s.termSucc[int32(term)]; ok {
					shiftTo = to
				}
			}
			reduces := cands[term]
			switch {
			case shiftTo >= 0 && len(reduces) > 0:
				// Shift preference (maximal munch).
				arow[term] = Action{Kind: ActShift, Arg: shiftTo}
				t.Conflicts = append(t.Conflicts, Conflict{
					State: si, Term: b.termName(term), Kind: "shift/reduce",
					Kept: "shift", Dropped: b.prodNames(reduces),
				})
			case shiftTo >= 0:
				arow[term] = Action{Kind: ActShift, Arg: shiftTo}
			case len(reduces) > 0:
				arow[term] = b.resolveReduce(si, term, reduces)
			case term == end && accept:
				arow[term] = Action{Kind: ActAccept}
			}
		}
		if accept && arow[end].Kind == ActErr {
			arow[end] = Action{Kind: ActAccept}
		}
		for _, a := range arow {
			if a.Kind != ActErr {
				t.Stats.ActionEntries++
			}
		}
		for _, g := range grow {
			if g >= 0 {
				t.Stats.GotoEntries++
			}
		}
		t.Action[si] = arow
		t.Goto[si] = grow
	}
}

// resolveReduce applies the longest-rule rule to a reduce/reduce set and
// builds a dynamic choice for surviving ties.
func (b *builder) resolveReduce(si, term int, reduces []int32) Action {
	t := b.tables
	if len(reduces) == 1 {
		return Action{Kind: ActReduce, Arg: reduces[0]}
	}
	sort.Slice(reduces, func(i, j int) bool { return reduces[i] < reduces[j] })
	reduces = dedup(reduces)
	maxLen := 0
	for _, p := range reduces {
		if n := len(b.prods[p].rhs); n > maxLen {
			maxLen = n
		}
	}
	var longest, dropped []int32
	for _, p := range reduces {
		if len(b.prods[p].rhs) == maxLen {
			longest = append(longest, p)
		} else {
			dropped = append(dropped, p)
		}
	}
	if len(longest) == 1 {
		if len(dropped) > 0 {
			t.Conflicts = append(t.Conflicts, Conflict{
				State: si, Term: b.termName(term), Kind: "reduce/reduce",
				Kept: b.prodName(longest[0]), Dropped: b.prodNames(dropped),
			})
		}
		return Action{Kind: ActReduce, Arg: longest[0]}
	}
	// Two or more longest rules: the matcher chooses dynamically using
	// semantic attributes. Qualified candidates are tried first, in
	// grammar order; the first unqualified candidate is the default.
	var qualified, unqualified []int32
	for _, p := range longest {
		if b.g.Prods[p-1].Pred != "" {
			qualified = append(qualified, p)
		} else {
			unqualified = append(unqualified, p)
		}
	}
	ordered := append(qualified, unqualified...)
	if len(unqualified) == 0 {
		t.SemBlocks = append(t.SemBlocks, SemBlock{
			State: si, Term: b.termName(term), Prods: toInts(ordered),
		})
	}
	t.Conflicts = append(t.Conflicts, Conflict{
		State: si, Term: b.termName(term), Kind: "reduce/reduce",
		Kept: "dynamic choice " + fmt.Sprint(toInts(ordered)), Dropped: b.prodNames(dropped),
	})
	return Action{Kind: ActChoice, Arg: b.internChoice(ordered)}
}

func (b *builder) internChoice(prods []int32) int32 {
	buf := make([]byte, 0, len(prods)*4)
	for _, p := range prods {
		buf = append(buf, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	key := string(buf)
	if i, ok := b.choiceIndex[key]; ok {
		return i
	}
	b.tables.Choices = append(b.tables.Choices, prods)
	i := int32(len(b.tables.Choices) - 1)
	b.choiceIndex[key] = i
	return i
}

func dedup(v []int32) []int32 {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func toInts(v []int32) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

func (b *builder) termName(term int) string {
	if term == len(b.tables.Terms) {
		return "$end"
	}
	return b.tables.Terms[term]
}

func (b *builder) prodName(p int32) string { return b.g.Prods[p-1].String() }

func (b *builder) prodNames(ps []int32) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = b.prodName(p)
	}
	return out
}
