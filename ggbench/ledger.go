package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ggcg"
	"ggcg/internal/cfront"
	"ggcg/internal/cgram"
	"ggcg/internal/codegen"
	"ggcg/internal/ir"
	"ggcg/internal/matcher"
	"ggcg/internal/pcc"
	"ggcg/internal/target"
	"ggcg/internal/transform"
)

// ledgerTolerance is how far the sum of the layers' self times may stray
// from the untraced compile time of the same jobs, as a share of it,
// before the ledger counts as not reconciling.
const ledgerTolerance = 0.15

// layer is one row of the ledger. Spans are recorded from the benchmark's
// side of each call into a layer package.
type layer uint8

const (
	lUnit      layer = iota // one job: the root span
	lCfront                 // cfront.CompileArena: lex and parse
	lTransform              // transform.UnitArena
	lLinearize              // ir.AppendLinearize, per tree
	lMatch                  // matcher.Match with null semantics, per tree
	lCodegen                // codegen.Compile: transform, match, semantics, emit
	lSem                    // Semantics.Reduce inside codegen: actions, register manager, emit
	lPeep                   // the target's peephole, when the job's configuration runs it
	lPeepCtx                // the target's peephole, run only to measure it
	lPcc                    // the hand-written VAX second pass, for the paper's ratio
	nLayers
	lNone layer = 255
)

var layerNames = [nLayers]string{"unit", "cfront", "transform", "ir.linearize", "matcher",
	"codegen", "sem", "peep", "peep.context", "pcc"}

// spanRec is one recorded span; times are nanoseconds since the pass began.
type spanRec struct {
	layer      layer
	tgt        uint8
	job        int32
	parent     int32 // index of the enclosing span, -1 for a root
	start, end int64
}

// tracer keeps spans in memory (while keep is set) and accumulates each
// layer's self time: its spans' durations minus the parts child spans
// cover.
//
// Reductions are too many and too short to time each one without
// inflating codegen (a span costs two clock reads), so one in semSample
// is timed, less the measured cost of an empty span, and the total is
// scaled up by the reductions counted.
type tracer struct {
	base  time.Time
	keep  bool
	spans []spanRec
	self  [nLayers][2]time.Duration
	root  time.Duration // summed root (unit) durations

	rng              uint64
	reduces, sampled [2]int64
	emptySpan        time.Duration
}

const semSample = 8

// sample reports whether to time this reduction.
func (t *tracer) sample() bool {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng%semSample == 0
}

// calibrate measures what an empty span reads, the clock's own cost.
func (t *tracer) calibrate() {
	t.base = time.Now()
	xs := make([]float64, 0, 4096)
	for i := 0; i < cap(xs); i++ {
		a := time.Since(t.base)
		xs = append(xs, float64(time.Since(t.base)-a))
	}
	t.emptySpan = time.Duration(median(xs))
}

// semTime estimates the time spent in all reductions for a target.
func (t *tracer) semTime(tgt int) time.Duration {
	if t.sampled[tgt] == 0 {
		return 0
	}
	timed := t.self[lSem][tgt] - time.Duration(t.sampled[tgt])*t.emptySpan
	return time.Duration(float64(timed) * float64(t.reduces[tgt]) / float64(t.sampled[tgt]))
}

type openSpan struct {
	idx int32
	at  time.Duration
}

func (t *tracer) begin(l layer, tgt, job int, parent openSpan) openSpan {
	o := openSpan{idx: -1, at: time.Since(t.base)}
	if t.keep {
		o.idx = int32(len(t.spans))
		t.spans = append(t.spans, spanRec{layer: l, tgt: uint8(tgt), job: int32(job), parent: parent.idx, start: int64(o.at)})
	}
	return o
}

func (t *tracer) end(o openSpan, l layer, tgt int, parent layer) {
	now := time.Since(t.base)
	d := now - o.at
	if o.idx >= 0 {
		t.spans[o.idx].end = int64(now)
	}
	t.self[l][tgt] += d
	if parent != lNone {
		t.self[parent][tgt] -= d
	} else if l == lUnit {
		t.root += d
	}
}

var noSpan = openSpan{idx: -1}

// timedSem wraps a target's semantic routines so that each reduction is a
// span under the codegen span.
type timedSem struct {
	inner   matcher.Semantics
	tr      *tracer
	tgt     int
	job     int
	codegen openSpan
}

func (s *timedSem) Reduce(p *cgram.Prod, args []matcher.Value) (any, error) {
	s.tr.reduces[s.tgt]++
	if !s.tr.sample() {
		return s.inner.Reduce(p, args)
	}
	s.tr.sampled[s.tgt]++
	o := s.tr.begin(lSem, s.tgt, s.job, s.codegen)
	v, err := s.inner.Reduce(p, args)
	s.tr.end(o, lSem, s.tgt, lCodegen)
	return v, err
}

func (s *timedSem) Predicate(name string, p *cgram.Prod, args []matcher.Value) bool {
	return s.inner.Predicate(name, p, args)
}

// nullSem drives the matcher without semantic work, isolating the parse.
type nullSem struct{}

func (nullSem) Reduce(*cgram.Prod, []matcher.Value) (any, error)    { return nil, nil }
func (nullSem) Predicate(string, *cgram.Prod, []matcher.Value) bool { return false }

// ledgerCounts are the deterministic work counts of one pass over the jobs.
type ledgerCounts struct {
	tokens, shifts, reduces int64
	spills, binding, rng    [2]int64
	peepIn, peepRemoved     int64
	cfrontAllocs            int64
	transformAllocs         int64
}

// ledger is the traced decomposition of a job set's compile time.
type ledger struct {
	b    *bench
	jobs []job

	mach     [2]target.Machine
	matchers [2]*matcher.Matcher
	interns  [2]*ir.TermInterner
	toks     [][]ir.Token // one linearized tree each, reused

	tr       tracer
	passes   int           // traced passes
	untraced time.Duration // untraced ggcg.Compile time over as many passes
	counts   ledgerCounts

	allocBytes, gcCycles uint64 // Go runtime deltas over the untraced passes
}

func newLedger(b *bench, jobs []job) (*ledger, error) {
	l := &ledger{b: b, jobs: jobs, tr: tracer{rng: 0x9e3779b97f4a7c15}}
	for i, name := range targets {
		m, err := target.Lookup(name)
		if err != nil {
			return nil, err
		}
		t, err := m.Tables()
		if err != nil {
			return nil, err
		}
		l.mach[i] = m
		l.matchers[i] = matcher.New(t, nullSem{})
		l.interns[i] = ir.NewTermInterner(t.Terms)
	}
	return l, nil
}

// run alternates untraced and traced passes over the jobs for about d,
// after one warm-up pass that also counts allocations and checks that the
// layer calls reproduce ggcg.Compile byte for byte.
func (l *ledger) run(d time.Duration) error {
	if err := l.countPass(); err != nil {
		return err
	}
	deadline := time.Now().Add(d)
	for l.passes < 2 || time.Now().Before(deadline) {
		if err := l.untracedPass(); err != nil {
			return err
		}
		l.tr.keep = l.passes == 0
		l.tr.base = time.Now()
		for i, j := range l.jobs {
			if _, err := l.traceJob(i, j); err != nil {
				return err
			}
		}
		if l.passes == 0 {
			if err := l.writeSpans(); err != nil {
				return err
			}
			l.tr.keep, l.tr.spans = false, nil
		}
		l.passes++
	}
	return nil
}

func (l *ledger) untracedPass() error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, j := range l.jobs {
		if _, err := ggcg.Compile(j.u.src, j.config()); err != nil {
			return fmt.Errorf("%s: %v", j, err)
		}
	}
	l.untraced += time.Since(start)
	runtime.ReadMemStats(&after)
	l.allocBytes += after.TotalAlloc - before.TotalAlloc
	l.gcCycles += uint64(after.NumGC - before.NumGC)
	return nil
}

// countPass runs every job once through the layer calls, untimed: it
// counts the deterministic work, measures cfront and transform heap
// allocations, and compares the layer-by-layer output with the reference.
func (l *ledger) countPass() error {
	for i := range l.matchers {
		t, _ := l.mach[i].Tables()
		l.matchers[i].Reset(t, nullSem{})
	}
	c := &l.counts
	var m0, m1, m2 runtime.MemStats
	for _, j := range l.jobs {
		tgt := targetIndex(j.target)
		a := ir.AcquireArena()
		runtime.ReadMemStats(&m0)
		u, err := cfront.CompileArena(j.u.src, a, nil)
		runtime.ReadMemStats(&m1)
		if err != nil {
			a.Release()
			return fmt.Errorf("%s: cfront: %v", j, err)
		}
		_, err = transform.UnitArena(u, transform.Options{}, a)
		runtime.ReadMemStats(&m2)
		if err != nil {
			a.Release()
			return fmt.Errorf("%s: transform: %v", j, err)
		}
		c.cfrontAllocs += int64(m1.Mallocs - m0.Mallocs)
		c.transformAllocs += int64(m2.Mallocs - m1.Mallocs)
		a.Release()
		res, err := l.traceJob(-1, j)
		if err != nil {
			return err
		}
		c.spills[tgt] += int64(res.Stats.Spills)
		c.binding[tgt] += int64(res.Stats.BindingIdioms)
		c.rng[tgt] += int64(res.Stats.RangeIdioms)
		c.peepIn += int64(res.Stats.AsmLines)
		c.peepRemoved += int64(res.Stats.Peephole.LinesRemoved)
	}
	for i := range l.matchers {
		st := l.matchers[i].Stats()
		c.shifts += int64(st.Shifts)
		c.reduces += int64(st.Reduces)
	}
	// The warm-up pass's times are discarded.
	l.tr = tracer{rng: 0x9e3779b97f4a7c15}
	l.tr.calibrate()
	return nil
}

// traceJob runs one job through the layers under spans. With idx < 0 it is
// the untimed warm-up, which also checks the output against the reference
// and returns codegen's result with the peephole statistics filled in.
func (l *ledger) traceJob(idx int, j job) (*codegen.Result, error) {
	tr := &l.tr
	tgt := targetIndex(j.target)
	mach := l.mach[tgt]
	a := ir.AcquireArena()
	defer a.Release()

	root := tr.begin(lUnit, tgt, idx, noSpan)
	o := tr.begin(lCfront, tgt, idx, root)
	u, err := cfront.CompileArena(j.u.src, a, nil)
	tr.end(o, lCfront, tgt, lUnit)
	if err != nil {
		return nil, fmt.Errorf("%s: cfront: %v", j, err)
	}
	o = tr.begin(lTransform, tgt, idx, root)
	tu, err := transform.UnitArena(u, transform.Options{}, a)
	tr.end(o, lTransform, tgt, lUnit)
	if err != nil {
		return nil, fmt.Errorf("%s: transform: %v", j, err)
	}
	// Linearize every tree of the unit, then match them all: one span each
	// rather than two per tree, which would be mostly clock reads.
	o = tr.begin(lLinearize, tgt, idx, root)
	trees := 0
	for _, f := range tu.Funcs {
		for _, it := range f.Items {
			if it.Kind != ir.ItemTree {
				continue
			}
			if trees == len(l.toks) {
				l.toks = append(l.toks, nil)
			}
			l.toks[trees] = ir.AppendLinearize(l.toks[trees][:0], it.Tree, l.interns[tgt])
			trees++
		}
	}
	tr.end(o, lLinearize, tgt, lUnit)
	o = tr.begin(lMatch, tgt, idx, root)
	for _, toks := range l.toks[:trees] {
		if _, err := l.matchers[tgt].Match(toks); err != nil {
			return nil, fmt.Errorf("%s: null-semantics match: %v", j, err)
		}
	}
	tr.end(o, lMatch, tgt, lUnit)
	if idx < 0 {
		for _, toks := range l.toks[:trees] {
			l.counts.tokens += int64(len(toks))
		}
	}
	cg := tr.begin(lCodegen, tgt, idx, root)
	res, err := codegen.Compile(u, codegen.Options{Target: mach, Arena: a,
		WrapSem: func(inner matcher.Semantics) matcher.Semantics {
			return &timedSem{inner: inner, tr: tr, tgt: tgt, job: idx, codegen: cg}
		}})
	tr.end(cg, lCodegen, tgt, lUnit)
	if err != nil {
		return nil, fmt.Errorf("%s: codegen: %v", j, err)
	}
	peepLayer := lPeepCtx
	if j.peep {
		peepLayer = lPeep
	}
	o = tr.begin(peepLayer, tgt, idx, root)
	peeped, pst := mach.Peephole(res.Asm)
	tr.end(o, peepLayer, tgt, lUnit)
	tr.end(root, lUnit, tgt, lNone)

	if tgt == 0 {
		o = tr.begin(lPcc, tgt, idx, noSpan)
		_, err := pcc.Compile(u)
		tr.end(o, lPcc, tgt, lNone)
		if err != nil {
			return nil, fmt.Errorf("%s: pcc: %v", j, err)
		}
	}

	if idx < 0 {
		got := res.Asm
		if j.peep {
			got = peeped
		}
		l.b.attempted++
		if r := l.b.chk.ref(j); r.err != nil || got != r.asm {
			l.b.fail("%s: layer-by-layer output differs from ggcg.Compile", j)
		}
		res.Stats.Peephole = pst
	}
	return res, nil
}

// writeSpans writes the first traced pass's spans as a Chrome trace_event
// file (open it in ui.perfetto.dev) under the work directory.
func (l *ledger) writeSpans() error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(l.tr.spans))
	for _, s := range l.tr.spans {
		evs = append(evs, event{Name: layerNames[s.layer], Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"job": l.jobs[s.job].String(), "parent": s.parent}})
	}
	f, err := os.Create(filepath.Join(l.b.work, "spans-"+l.b.workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report sets the ledger's per-layer metrics and the reconciliation.
func (l *ledger) report() {
	b := l.b
	s := &l.tr.self
	var perTarget [2]float64
	lines := 0
	for _, j := range l.jobs {
		perTarget[targetIndex(j.target)]++
		lines += j.u.lines
	}
	passes := float64(l.passes)
	nJobs := passes * float64(len(l.jobs))
	all := func(ly layer) time.Duration { return s[ly][0] + s[ly][1] }
	perJob := func(d time.Duration) float64 { return ms(d) / nJobs }
	perT := func(d time.Duration, t int) float64 { return ms(d) / (passes * perTarget[t]) }

	b.setLayer("cfront.ms", perJob(all(lCfront)), "ms")
	b.setLayer("cfront.lines_per_s", passes*float64(lines)/all(lCfront).Seconds(), "lines/s")
	b.setLayer("transform.ms", perJob(all(lTransform)), "ms")
	b.setLayer("ir.linearize_ms", perJob(all(lLinearize)), "ms")
	b.setLayer("matcher.ms", perJob(all(lMatch)), "ms")
	actions := float64(l.counts.shifts + l.counts.reduces)
	b.setLayer("matcher.ns_per_action", float64(all(lMatch))/(passes*actions), "ns")
	// The codegen span includes every reduction; the sampled sem spans
	// stand for all of them.
	var codegenSpan, sem [2]time.Duration
	for t := range targets {
		codegenSpan[t] = s[lCodegen][t] + s[lSem][t]
		sem[t] = l.tr.semTime(t)
	}
	semAll := sem[0] + sem[1]
	residual := codegenSpan[0] + codegenSpan[1] - semAll - all(lTransform) - all(lLinearize) - all(lMatch)
	b.setLayer("codegen.residual_ms", perJob(residual), "ms")
	for t, name := range targets {
		if perTarget[t] == 0 {
			continue
		}
		b.setLayer(name+".sem_ms", perT(sem[t], t), "ms")
		b.setLayer("codegen.ms."+name, perT(codegenSpan[t], t), "ms")
		b.setLayer("peep.ms."+name, perT(s[lPeep][t]+s[lPeepCtx][t], t), "ms")
	}
	if perTarget[0] > 0 {
		b.setLayer("pcc.ms", perT(s[lPcc][0], 0), "ms")
		b.note("paper E2 ratio: GG codegen %.4f ms / PCC second pass %.4f ms = %.2f per VAX unit",
			perT(codegenSpan[0], 0), perT(s[lPcc][0], 0), float64(codegenSpan[0])/float64(s[lPcc][0]))
	}

	c := l.counts
	units := float64(len(l.jobs))
	b.setLayer("cfront.allocs_per_unit", float64(c.cfrontAllocs)/units, "count")
	b.setLayer("transform.allocs_per_unit", float64(c.transformAllocs)/units, "count")
	b.setLayer("ir.tokens", float64(c.tokens), "count")
	b.setLayer("matcher.shifts", float64(c.shifts), "count")
	b.setLayer("matcher.reduces", float64(c.reduces), "count")
	b.setLayer("vax.spills", float64(c.spills[0]), "count")
	b.setLayer("risc.spills", float64(c.spills[1]), "count")
	b.setLayer("vax.binding_idioms", float64(c.binding[0]), "count")
	b.setLayer("vax.range_idioms", float64(c.rng[0]), "count")
	b.setLayer("peep.lines_removed_ratio", float64(c.peepRemoved)/float64(c.peepIn), "ratio")

	// The ledger: every layer's self time, the codegen residual standing
	// for codegen's own bookkeeping, and the peephole where the job asked
	// for it. It sums to cfront plus the codegen span (plus peephole).
	sum := all(lCfront) + all(lTransform) + all(lLinearize) + all(lMatch) + semAll + residual + all(lPeep)
	unaccounted := 1 - float64(sum)/float64(l.untraced)
	b.setLayer("ledger.unaccounted_ratio", unaccounted, "ratio")
	b.setLayer("trace.overhead_ratio", float64(l.tr.root)/float64(l.untraced), "ratio")
	verdict := "reconciles"
	if unaccounted > ledgerTolerance || unaccounted < -ledgerTolerance {
		verdict = "DOES NOT RECONCILE"
		fmt.Fprintf(os.Stderr, "ggbench: ledger does not reconcile: unaccounted %.3f outside ±%.2f\n", unaccounted, ledgerTolerance)
	}
	b.ledgerJobMs = perJob(sum)
	b.note("ledger over %d jobs × %d passes: untraced %.4f ms/job, layer sum %.4f ms/job, unaccounted %+.3f (tolerance ±%.2f): %s",
		len(l.jobs), l.passes, ms(l.untraced)/nJobs, perJob(sum), unaccounted, ledgerTolerance, verdict)
	var parts []string
	for _, ly := range []layer{lCfront, lTransform, lLinearize, lMatch, lPeep} {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", layerNames[ly], 100*float64(all(ly))/float64(sum)))
	}
	parts = append(parts, fmt.Sprintf("sem %.1f%%", 100*float64(semAll)/float64(sum)))
	parts = append(parts, fmt.Sprintf("codegen.residual %.1f%%", 100*float64(residual)/float64(sum)))
	b.note("ledger shares: %s", strings.Join(parts, ", "))
}

// reportRuntime sets the Go runtime metrics from allocation and GC deltas
// over n compiled units.
func (b *bench) reportRuntime(allocBytes, gcCycles uint64, n float64) {
	b.setLayer("alloc_kb_per_unit", float64(allocBytes)/1024/n, "KB")
	b.setLayer("gc_cycles_per_1k_units", float64(gcCycles)*1000/n, "count")
}

// observedPhases compiles every job once with an observer attached and
// sets the program's own per-phase times (the obs span aggregates ggcd
// exports on /metrics), per job.
func (b *bench) observedPhases(jobs []job, passes int) {
	sums := map[string]int64{}
	for p := 0; p < passes; p++ {
		for _, j := range jobs {
			o := ggcg.NewObserver(ggcg.ObserverConfig{})
			cfg := j.config()
			cfg.Observer = o
			if _, err := ggcg.Compile(j.u.src, cfg); err != nil {
				continue
			}
			for _, ph := range o.Phases() {
				sums[lastElem(ph.Path)] += ph.Ns
			}
		}
	}
	b.setPhases(sums, float64(passes*len(jobs)))
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// setPhases sets obs.phase_ms.* from per-phase nanosecond totals over n
// compiled units.
func (b *bench) setPhases(ns map[string]int64, n float64) {
	for _, ph := range []string{"lex", "parse", "transform", "select"} {
		b.setLayer("obs.phase_ms."+ph, float64(ns[ph])/1e6/n, "ms")
	}
	if ns["peep"] > 0 {
		b.note("obs.phase_ms.peep %.4f ms per compiled unit", float64(ns["peep"])/1e6/n)
	}
}
