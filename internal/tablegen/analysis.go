package tablegen

import (
	"fmt"
	"strings"

	"ggcg/internal/cgram"
)

// checkChainLoops rejects grammars whose nonterminal chain rules can be
// cyclically reduced; the table generator must ensure the pattern matcher
// cannot get into such a looping configuration (§3.2).
func checkChainLoops(g *cgram.Grammar) error {
	edges := make(map[string][]string)
	for _, p := range g.Prods {
		if p.IsChain() {
			edges[p.RHS[0]] = append(edges[p.RHS[0]], p.LHS)
		}
	}
	const (
		unvisited = iota
		onStack
		done
	)
	color := make(map[string]int)
	var stack []string
	var cycle []string
	var visit func(string) bool
	visit = func(n string) bool {
		color[n] = onStack
		stack = append(stack, n)
		for _, m := range edges[n] {
			switch color[m] {
			case onStack:
				i := len(stack) - 1
				for i >= 0 && stack[i] != m {
					i--
				}
				cycle = append(append([]string{}, stack[i:]...), m)
				return true
			case unvisited:
				if visit(m) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = done
		return false
	}
	for n := range edges {
		if color[n] == unvisited && visit(n) {
			return fmt.Errorf("tablegen: chain rule loop: %s", strings.Join(cycle, " -> "))
		}
	}
	return nil
}

// Block records a syntactic block: a parser configuration, reachable on
// some well-formed input tree, in which the pattern matcher performs an
// error action. The present table generator only notifies the user and
// does not attempt corrective action (§3.2); blocks are repaired by adding
// bridge productions to the grammar (§6.2.2).
type Block struct {
	State  int
	Term   string
	Prefix string // a witness terminal prefix reaching the block
}

func (b Block) String() string {
	return fmt.Sprintf("state %d blocks on %s after %q", b.State, b.Term, b.Prefix)
}

// CheckBlocks searches for syntactic blocks by exploring every parser
// configuration reachable from well-formed prefix tree strings of at most
// maxTokens terminals, visiting at most maxConfigs configurations. The
// arity oracle gives each terminal's operand count; terminals it does not
// know are skipped. It returns the blocks found and whether every
// configuration within the token bound was explored (false only when the
// maxConfigs budget truncated the search). Note that the input set is an
// over-approximation — every arity-valid tree, not only trees a front end
// can produce — so reported blocks are notifications for the grammar
// author to interpret, exactly the behaviour §3.2 describes.
func CheckBlocks(t *Tables, arity func(string) (int, bool), maxTokens, maxConfigs int) ([]Block, bool) {
	type config struct {
		stack  []int32
		need   int // subtrees still required for a complete tree
		tokens int
		prefix string
	}
	arities := make([]int, len(t.Terms))
	usable := make([]bool, len(t.Terms))
	for i, term := range t.Terms {
		if a, ok := arity(term); ok {
			arities[i], usable[i] = a, true
		}
	}
	seen := make(map[string]bool)
	key := func(c *config) string {
		buf := make([]byte, 0, len(c.stack)*4+4)
		for _, s := range c.stack {
			buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
		}
		buf = append(buf, byte(c.need))
		return string(buf)
	}
	var blocks []Block
	blocked := make(map[[2]int]bool)
	complete := true
	work := []*config{{stack: []int32{0}, need: 1}}
	seen[key(work[0])] = true
	for len(work) > 0 {
		if len(seen) > maxConfigs {
			complete = false
			break
		}
		c := work[0]
		work = work[1:]
		tryTerm := func(term int, termName string) {
			stack := append([]int32{}, c.stack...)
			for {
				st := stack[len(stack)-1]
				act := t.Lookup(int(st), term)
				switch act.Kind {
				case ActErr:
					k := [2]int{int(st), term}
					if !blocked[k] {
						blocked[k] = true
						blocks = append(blocks, Block{State: int(st), Term: termName, Prefix: c.prefix})
					}
					return
				case ActShift:
					stack = append(stack, act.Arg)
					nc := &config{
						stack:  stack,
						need:   c.need - 1 + arities[term],
						tokens: c.tokens + 1,
						prefix: strings.TrimSpace(c.prefix + " " + termName),
					}
					if k := key(nc); !seen[k] {
						seen[k] = true
						work = append(work, nc)
					}
					return
				case ActAccept:
					return
				case ActReduce, ActChoice:
					p := act.Arg
					if act.Kind == ActChoice {
						p = t.Choices[act.Arg][len(t.Choices[act.Arg])-1] // default candidate
					}
					rhsLen := len(t.Grammar.Prods[p-1].RHS)
					stack = stack[:len(stack)-rhsLen]
					lhs, _ := t.NontermID(t.Grammar.Prods[p-1].LHS)
					to := int32(t.GotoState(int(stack[len(stack)-1]), lhs))
					if to < 0 {
						k := [2]int{int(stack[len(stack)-1]), -1 - lhs}
						if !blocked[k] {
							blocked[k] = true
							blocks = append(blocks, Block{
								State: int(stack[len(stack)-1]),
								Term:  "goto " + t.Nonterms[lhs], Prefix: c.prefix,
							})
						}
						return
					}
					stack = append(stack, to)
				}
			}
		}
		if c.need == 0 {
			tryTerm(t.End(), "$end")
			continue
		}
		if c.tokens >= maxTokens {
			continue
		}
		for term := 0; term < len(t.Terms); term++ {
			if !usable[term] {
				continue
			}
			tryTerm(term, t.Terms[term])
		}
	}
	return blocks, complete
}
