// Package ggcg is a reproduction of "An Experiment in Table Driven Code
// Generation" (Graham, Henry, Schulman; PLDI 1982): a Graham-Glanville
// local code generator for the VAX-11 in which instructions are selected by
// an SLR(1)-style shift/reduce pattern matcher driven by tables constructed
// automatically from a machine description grammar.
//
// The package compiles a small dialect of C to VAX assembly with either the
// table-driven code generator or a hand-written ad hoc baseline in the
// style of the Portable C Compiler's second pass, and can execute the
// generated assembly on a bundled VAX-subset simulator. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the reproduced measurements.
//
//	out, err := ggcg.Compile(`int main() { return 6 * 7; }`, ggcg.Config{})
//	...
//	m, err := ggcg.NewMachine(out.Asm)
//	r, err := m.Call("main")   // r == 42
package ggcg

import (
	"fmt"
	"io"

	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	"ggcg/internal/ir"
	"ggcg/internal/obs"
	"ggcg/internal/pcc"
	"ggcg/internal/peep"
	_ "ggcg/internal/risc" // register the RISC-subset backend
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
	"ggcg/internal/transform"
	"ggcg/internal/vax"
	"ggcg/internal/vaxsim"
)

// Observer is the unified instrumentation hook: hierarchical phase spans,
// counters and histograms, table coverage (productions fired, SLR states
// visited) and simulator execution profiles, exportable as JSONL events
// and a human-readable report. A nil *Observer disables everything; see
// internal/obs for the event schema.
type Observer = obs.Observer

// ObserverConfig configures a new Observer.
type ObserverConfig = obs.Config

// ObsEvent is the JSONL event record an Observer emits; a stream of them
// round-trips through encoding/json.
type ObsEvent = obs.Event

// SimProfile is the dynamic execution profile of the simulator.
type SimProfile = obs.SimProfile

// Hist is a snapshot of an Observer or Registry histogram: power-of-two
// buckets plus p50/p90/p99 quantile estimates.
type Hist = obs.Hist

// Registry is the long-lived metrics store behind a scrape endpoint:
// cumulative counters, histograms with quantile estimates and per-phase
// span aggregates, exported in the Prometheus text format via
// WritePrometheus. Services record request metrics directly and fold
// each request's Observer in with Merge; see cmd/ggcd for the daemon
// built on it.
type Registry = obs.Registry

// NewObserver returns an enabled instrumentation observer.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// NewRegistry returns an empty metrics registry whose exported metric
// names are prefixed with namespace.
func NewRegistry(namespace string) *Registry { return obs.NewRegistry(namespace) }

// Config selects how a program is compiled.
type Config struct {
	// Target names the backend the table-driven generator drives: one of
	// Targets(), empty meaning "vax" — the machine of the paper's
	// experiment. An unknown name errors, listing the registered targets.
	// The baseline generator is a hand-written VAX second pass and
	// rejects any other target.
	Target string

	// Baseline selects the hand-written ad hoc code generator (the PCC
	// second-pass stand-in) instead of the table-driven one.
	Baseline bool

	// NoReverseOps disables the reverse binary operators of the
	// evaluation-ordering heuristic (§5.1.3), the E4 ablation.
	NoReverseOps bool

	// Peephole runs the assembly-level peephole optimizer over the
	// output, the alternative organization §6.1 of the paper discusses.
	// It applies to both generators.
	Peephole bool

	// Trace receives the pattern matcher's shift/reduce actions, one per
	// line — the listing style of the paper's appendix. It is a thin
	// adapter over the Observer's trace event stream: the listing and the
	// JSONL trace events render from the same events. Ignored by the
	// baseline generator.
	Trace io.Writer

	// Observer, if non-nil, instruments the whole compilation: phase
	// spans, counters, histograms and table coverage accumulate into it.
	// Observers are safe for concurrent use; CompileBatch and the
	// per-function parallel path record through per-worker shards so hot
	// paths never contend.
	Observer *Observer

	// Workers sets the number of goroutines compiling independent
	// functions of the unit concurrently over the shared read-only
	// tables; 0 or 1 compiles sequentially. The output is byte-identical
	// to the sequential output. Ignored by the baseline generator and
	// whenever the trace is wanted — Trace, or an Observer with trace
	// events — since the shift/reduce listing is per-action ordered.
	Workers int

	// Cache, if non-nil, serves repeated compilations of identical
	// source under an identical configuration from a content-addressed
	// store instead of recompiling, and coalesces concurrent identical
	// requests onto a single compile (singleflight). Cached output is
	// byte-identical to a fresh compile by construction: the key covers
	// every output-affecting knob plus the identity of the tables (see
	// internal/compcache). Ignored when Trace is set — the shift/reduce
	// listing is a per-compilation side effect a cache hit could not
	// replay.
	Cache *Cache

	// CacheScope is an opaque discriminator folded into the cache key.
	// Serving layers whose requests must not share entries even for
	// identical source and knobs (ggcd keys its response format here)
	// set distinct scopes; leave empty otherwise.
	CacheScope string
}

// Stats reports code-generation work for one compilation.
type Stats struct {
	Trees         int // expression trees matched
	Shifts        int // parser shift actions
	Reduces       int // parser reductions
	Spills        int // registers spilled to virtual registers
	BindingIdioms int // three-address forms bound to two-address forms
	RangeIdioms   int // increment/decrement/clear simplifications
	AsmLines      int // instructions emitted
}

// Compiled is the result of a compilation.
type Compiled struct {
	Asm   string
	Stats Stats

	// Cached reports that this result was served from Config.Cache —
	// either a stored entry or another request's in-flight compile —
	// rather than compiled by this call.
	Cached bool
}

// Compile compiles source text (the C dialect cfront accepts) to
// assembly for the configured target (the VAX by default). With
// Config.Cache set, repeated compilations of the same source and
// configuration are served from the cache, byte-identically.
func Compile(src string, cfg Config) (*Compiled, error) {
	if cfg.Cache != nil && cfg.Trace == nil {
		return compileCached(src, cfg)
	}
	return compile(src, cfg)
}

// compile is the uncached pipeline behind Compile. It owns one pooled node
// arena for the whole front half: cfront builds the unit's trees in it and
// transform draws replacement nodes from it (sequentially) or from pooled
// per-worker arenas (Config.Workers > 1). The arena is released on every
// exit path — the returned Compiled never aliases arena memory, because
// Asm is a copied string and Stats are plain counters.
func compile(src string, cfg Config) (*Compiled, error) {
	mach, err := resolveTarget(cfg)
	if err != nil {
		return nil, err
	}
	a := ir.AcquireArena()
	defer a.Release()
	o := cfg.Observer
	if cfg.Trace != nil {
		// The appendix-style listing is a sink over the observer's trace
		// event stream, so the listing and the JSONL trace events cannot
		// drift apart. A trace with no explicit observer gets a private
		// adapter-only one.
		if o == nil {
			o = obs.New(obs.Config{})
		}
		w := cfg.Trace
		o.SetTraceSink(func(e obs.TraceEvent) { fmt.Fprintln(w, e.String()) })
	}
	sp := o.Start("compile")
	defer sp.End()
	unit, err := cfront.CompileArena(src, a, o)
	if err != nil {
		return nil, err
	}
	if cfg.Baseline {
		bsp := o.Start("baseline")
		res, err := pcc.Compile(unit)
		bsp.End()
		if err != nil {
			return nil, err
		}
		out := &Compiled{Asm: res.Asm, Stats: Stats{AsmLines: res.AsmLines, Spills: res.Spills}}
		if cfg.Peephole {
			psp := o.Start("peep")
			var pst peep.Stats
			out.Asm, pst = peep.Optimize(out.Asm)
			psp.End()
			codegen.CountPeep(o, pst)
			out.Stats.AsmLines -= pst.LinesRemoved
			if out.Stats.AsmLines < 0 {
				// The baseline's line count and the optimizer's removal
				// count are measured differently (emitted instructions vs
				// instructions parsed back from the text); never let the
				// difference go negative.
				out.Stats.AsmLines = 0
			}
		}
		o.Count("codegen.asm_lines", int64(out.Stats.AsmLines))
		o.Count("codegen.spills", int64(out.Stats.Spills))
		return out, nil
	}
	res, err := codegen.Compile(unit, codegen.Options{
		Transform: transform.Options{NoReverseOps: cfg.NoReverseOps},
		Arena:     a,
		Target:    mach,
		Peephole:  cfg.Peephole,
		Obs:       o,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &Compiled{Asm: res.Asm, Stats: Stats{
		Trees:         res.Stats.Matcher.Trees,
		Shifts:        res.Stats.Matcher.Shifts,
		Reduces:       res.Stats.Matcher.Reduces,
		Spills:        res.Stats.Spills,
		BindingIdioms: res.Stats.BindingIdioms,
		RangeIdioms:   res.Stats.RangeIdioms,
		AsmLines:      res.Stats.AsmLines,
	}}, nil
}

// resolveTarget maps a Config to its backend: the registry entry for
// Config.Target, or the VAX for an empty name. The baseline generator is
// a VAX-only hand-written second pass, so it accepts only the default.
func resolveTarget(cfg Config) (target.Machine, error) {
	if cfg.Target == "" || cfg.Target == vax.Target.Name() {
		return vax.Target, nil
	}
	if cfg.Baseline {
		return nil, fmt.Errorf("ggcg: the baseline generator is VAX-only; it cannot target %q", cfg.Target)
	}
	return target.Lookup(cfg.Target)
}

// Targets returns the names of the registered backends, sorted.
func Targets() []string { return target.Names() }

// Sim executes a target's generated assembly: the common surface of the
// per-target simulators (vaxsim, riscsim). The VAX-specific Machine type
// below remains the richer interface to the VAX simulator.
type Sim = target.Sim

// NewSim assembles generated output for execution on the named target's
// simulator ("" means the VAX). Function and global names are
// assembler-level here — callers add the leading underscore.
func NewSim(targetName, asm string) (Sim, error) {
	mach, err := resolveTarget(Config{Target: targetName})
	if err != nil {
		return nil, err
	}
	return mach.NewSim(asm)
}

// Machine executes generated assembly on the VAX-subset simulator.
type Machine struct {
	m      *vaxsim.Machine
	obs    *Observer
	merged SimProfile // profile portion already merged into obs
}

// NewMachine assembles a program for execution.
func NewMachine(asm string) (*Machine, error) {
	return NewMachineObs(asm, nil)
}

// NewMachineObs is NewMachine with instrumentation: assembly reports a
// span, and every Call reports an execution span and merges its dynamic
// profile (opcode/addressing-mode frequencies, per-function steps) into
// the observer.
func NewMachineObs(asm string, o *Observer) (*Machine, error) {
	sp := o.Start("assemble")
	p, err := vaxsim.Assemble(asm)
	sp.End()
	if err != nil {
		return nil, err
	}
	o.Count("asm.instructions", int64(len(p.Instrs)))
	o.Count("asm.labels", int64(len(p.Labels)))
	o.Count("asm.globals", int64(len(p.Globals)))
	m := &Machine{m: vaxsim.New(p)}
	m.SetObserver(o)
	return m, nil
}

// SetObserver attaches (or, with nil, detaches) an instrumentation
// observer; attaching enables per-function step attribution.
func (m *Machine) SetObserver(o *Observer) {
	m.obs = o
	if o.Enabled() {
		m.m.EnableFuncProfile()
	}
}

// Call resets the machine and invokes a function (named as in the source;
// the assembler-level underscore is added here) with longword arguments,
// returning its int result.
func (m *Machine) Call(fn string, args ...int64) (int64, error) {
	sp := m.obs.Start("execute")
	r, err := m.m.Call("_"+fn, args...)
	sp.End()
	if m.obs.Enabled() {
		cur := m.m.Profile()
		m.obs.AddSim(cur.Diff(m.merged))
		m.merged = cur
	}
	return r, err
}

// Profile returns the cumulative dynamic execution profile of the
// simulated machine.
func (m *Machine) Profile() SimProfile { return m.m.Profile() }

// Steps returns the number of simulated instructions executed so far.
func (m *Machine) Steps() int64 { return m.m.Steps() }

// ReadGlobal reads a global variable of the given byte size (1, 2 or 4)
// as a signed integer.
func (m *Machine) ReadGlobal(name string, size int) (int64, error) {
	return m.m.ReadGlobal("_"+name, size)
}

// GrammarInfo summarizes a target's machine description and its
// constructed tables — the statistics of the paper's §8.
type GrammarInfo struct {
	// Target is the backend the statistics describe.
	Target string

	GenericProductions int // before type replication
	Productions        int // after type replication
	Terminals          int
	Nonterminals       int
	States             int
	Conflicts          int // disambiguated shift/reduce and reduce/reduce conflicts
	ChainRules         int

	// Measured table encoding sizes: the dense ACTION/GOTO matrices the
	// constructor builds, and the packed comb-vector form the matcher's
	// hot loop drives (see DESIGN.md, "Table encoding").
	TableBytes       int
	PackedTableBytes int
}

// Info returns grammar and table statistics for the default (VAX)
// description; InfoFor selects another target by name. The statistics are
// computed from the same once-built shared grammar and tables every
// compilation drives, so a CLI table dump cannot diverge from what
// Compile actually uses.
func Info() (GrammarInfo, error) { return InfoFor("") }

// InfoFor returns grammar and table statistics for the named target (""
// means the VAX).
func InfoFor(targetName string) (GrammarInfo, error) {
	mach, err := resolveTarget(Config{Target: targetName})
	if err != nil {
		return GrammarInfo{}, err
	}
	gen, err := mach.GenericStats()
	if err != nil {
		return GrammarInfo{}, err
	}
	t, err := mach.Tables()
	if err != nil {
		return GrammarInfo{}, err
	}
	fs := t.Grammar.Stats()
	sz := t.Size()
	return GrammarInfo{
		Target:             mach.Name(),
		GenericProductions: gen.Productions,
		Productions:        fs.Productions,
		Terminals:          fs.Terminals,
		Nonterminals:       fs.Nonterminals,
		States:             t.Stats.States,
		Conflicts:          len(t.Conflicts),
		ChainRules:         fs.ChainRules,
		TableBytes:         sz.Bytes,
		PackedTableBytes:   sz.PackedBytes,
	}, nil
}

// BuildTables constructs the instruction-selection tables from the VAX
// description, optionally with the naive first-cut algorithm (the
// configuration that took "over two hours of VAX 11/780 CPU time", §7).
// The standard (non-naive) configuration returns the same once-built
// shared tables Compile drives, so a table dump and a compilation can
// never describe different objects; only the naive experiment rebuilds.
func BuildTables(naive bool) (states int, err error) {
	if !naive {
		t, err := vax.Target.Tables()
		if err != nil {
			return 0, err
		}
		return t.Stats.States, nil
	}
	g, err := vax.Target.Grammar()
	if err != nil {
		return 0, err
	}
	t, err := tablegen.Build(g, tablegen.Options{Naive: true})
	if err != nil {
		return 0, err
	}
	return t.Stats.States, nil
}
