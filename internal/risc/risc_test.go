package risc_test

import (
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	"ggcg/internal/corpus"
	"ggcg/internal/risc"
	"ggcg/internal/riscsim"
	"ggcg/internal/vax"
)

// TestTablesBuild constructs the RISC instruction-selection tables and
// checks the shape the paper's §8 statistics table reports per machine:
// the generic description replicates out to more productions, the
// constructor resolves every conflict, and the packed encoding is
// smaller than the dense one.
func TestTablesBuild(t *testing.T) {
	g, err := risc.Target.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := risc.Target.GenericStats()
	if err != nil {
		t.Fatal(err)
	}
	fs := g.Stats()
	if fs.Productions <= gen.Productions {
		t.Errorf("replication did not grow the grammar: generic %d, replicated %d",
			gen.Productions, fs.Productions)
	}
	if fs.ChainRules == 0 {
		t.Error("no chain rules in the replicated grammar")
	}
	tb, err := risc.Target.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Stats.States == 0 {
		t.Error("no states constructed")
	}
	if tb.Packed() == nil {
		t.Fatal("RISC tables have no packed form")
	}
	sz := tb.Size()
	if sz.PackedBytes <= 0 || sz.PackedBytes >= sz.Bytes {
		t.Errorf("packed form (%d bytes) is no smaller than dense (%d bytes)",
			sz.PackedBytes, sz.Bytes)
	}
	if len(tb.SemBlocks) != 0 {
		t.Errorf("RISC description has semantic blocks: %v", tb.SemBlocks)
	}
}

// TestTableIDDistinctFromVAX: the cache fingerprints of the two targets
// must differ at the table-identity layer too, not only by name.
func TestTableIDDistinctFromVAX(t *testing.T) {
	rid, err := risc.Target.TableID()
	if err != nil {
		t.Fatal(err)
	}
	vid, err := vax.Target.TableID()
	if err != nil {
		t.Fatal(err)
	}
	if rid == "" || rid == vid {
		t.Errorf("RISC table ID %q not distinct from VAX %q", rid, vid)
	}
}

// TestCorpusExecutes generates RISC code for the whole validation corpus
// and executes it on riscsim, with and without the peephole optimizer:
// every program must return its Want value either way.
func TestCorpusExecutes(t *testing.T) {
	for _, p := range corpus.Programs() {
		for _, peep := range []bool{false, true} {
			u, err := cfront.Compile(p.Src)
			if err != nil {
				t.Fatalf("%s: front end: %v", p.Name, err)
			}
			res, err := codegen.Compile(u, codegen.Options{Target: risc.Target, Peephole: peep})
			if err != nil {
				t.Fatalf("%s (peep=%v): codegen: %v", p.Name, peep, err)
			}
			prog, err := riscsim.Assemble(res.Asm)
			if err != nil {
				t.Fatalf("%s (peep=%v): assemble: %v\n%s", p.Name, peep, err, res.Asm)
			}
			m := riscsim.New(prog)
			r, err := m.Call("_main", p.Args...)
			if err != nil {
				t.Fatalf("%s (peep=%v): execute: %v", p.Name, peep, err)
			}
			if r != p.Want {
				t.Errorf("%s (peep=%v): main(%v) = %d, want %d", p.Name, peep, p.Args, r, p.Want)
			}
		}
	}
}
