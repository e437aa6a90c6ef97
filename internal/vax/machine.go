package vax

import (
	"ggcg/internal/ir"
	"ggcg/internal/peep"
	"ggcg/internal/target"
	"ggcg/internal/vaxsim"
)

// machine adapts this package to the target.Machine seam: the embedded
// description provides the grammar and tables, and the methods below are
// a thin veneer over the package's exported surface (NewGen, EmitGlobals,
// ...), so the target-neutral driver and the direct API stay
// byte-for-byte equivalent.
type machine struct{ *target.Description }

// The description's tables are built ahead of time and shipped as static
// arrays; regenerate them after editing the description.
//go:generate go run ggcg/cmd/ggtables -target vax -gen tables_gen.go

// Target is the VAX-11 backend, the machine of the paper's experiment and
// the default target of the code generator.
var Target target.Machine = machine{target.NewDescription("vax", GenericGrammar, &shippedTables)}

func init() { target.Register(Target) }

func (machine) Name() string { return "vax" }

func (machine) NewGen(body *target.Emitter, f *ir.Func, labelBase int) target.Gen {
	g := NewGen(body, f)
	g.LabelBase = labelBase
	return g
}

func (machine) EmitGlobals(e *target.Emitter, globals []ir.Global) { EmitGlobals(e, globals) }

func (machine) FuncHeader(e *target.Emitter, name string, frameBytes int) {
	FuncHeader(e, name, frameBytes)
}

func (machine) Peephole(asm string) (string, peep.Stats) { return peep.Optimize(asm) }

func (machine) NewSim(asm string) (target.Sim, error) {
	p, err := vaxsim.Assemble(asm)
	if err != nil {
		return nil, err
	}
	return vaxsim.New(p), nil
}

// The methods below complete *Gen's target.Gen surface; the concrete
// fields they front (RM, idiom counters) remain exported for the tests
// and ablations that poke at VAX specifics directly.

// Phase1Busy marks r as owned by the tree-transformation phase.
func (g *Gen) Phase1Busy(r int, busy bool) { g.RM.Phase1Busy(r, busy) }

// CheckStatementEnd verifies the register stack discipline at a
// statement boundary.
func (g *Gen) CheckStatementEnd() error { return g.RM.CheckStatementEnd() }

// Stats reports the generator's per-function work counters.
func (g *Gen) Stats() target.GenStats {
	return target.GenStats{
		Spills:        g.RM.Spills,
		BindingIdioms: g.BindingIdioms,
		RangeIdioms:   g.RangeIdioms,
	}
}
