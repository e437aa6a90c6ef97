package codegen

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/ir"
	_ "ggcg/internal/risc" // registers the second target
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
	"ggcg/internal/vax"
	"ggcg/internal/vaxsim"
)

// freshTables builds a target's tables from its machine description
// with the table constructor, once per test binary: the reference the
// shipped tables are checked against.
var freshTables = struct {
	sync.Mutex
	m map[string]*tablegen.Tables
}{m: map[string]*tablegen.Tables{}}

func buildFresh(t *testing.T, mach target.Machine) *tablegen.Tables {
	t.Helper()
	freshTables.Lock()
	defer freshTables.Unlock()
	if tb := freshTables.m[mach.Name()]; tb != nil {
		return tb
	}
	g, err := mach.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := tablegen.Build(g, tablegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	freshTables.m[mach.Name()] = tb
	return tb
}

func lookupTarget(t *testing.T, name string) target.Machine {
	t.Helper()
	mach, err := target.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// TestTablesGenerated is the drift test of the shipped tables: for every
// registered target it rebuilds the tables from the machine description,
// renders them through the same generator `ggtables -gen` uses, and
// requires the checked-in tables_gen.go byte for byte, its TableID
// constant included. The description stays the single source of truth.
func TestTablesGenerated(t *testing.T) {
	for _, name := range target.Names() {
		t.Run(name, func(t *testing.T) {
			mach := lookupTarget(t, name)
			want, err := buildFresh(t, mach).GoSource(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("..", name, "tables_gen.go")
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v: run go generate ./internal/%s", err, name)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s is stale: it differs from the tables the description builds; run go generate ./internal/%s", path, name)
			}
			id, err := mach.TableID()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(want, []byte(fmt.Sprintf("const tableID = %q", id))) {
				t.Errorf("TableID %s is not the generated tableID constant", id)
			}
		})
	}
}

// TestPackedEquivalence holds the shipped packed tables to exact lookup
// equivalence with freshly built dense matrices over every (state,
// symbol) pair of every registered target's full description — the
// production-scale counterpart of tablegen's differential test on toy
// grammars. The matcher drives only the shipped packed form, so this is
// what ties its actions to the LR construction.
func TestPackedEquivalence(t *testing.T) {
	for _, name := range target.Names() {
		t.Run(name, func(t *testing.T) {
			mach := lookupTarget(t, name)
			built := buildFresh(t, mach)
			shipped, err := mach.Tables()
			if err != nil {
				t.Fatal(err)
			}
			if shipped.Action != nil || shipped.Goto != nil {
				t.Fatalf("%s tables carry dense matrices: they were built, not shipped", name)
			}
			p := shipped.Packed()
			if shipped.Stats != built.Stats {
				t.Fatalf("stats: shipped %+v, built %+v", shipped.Stats, built.Stats)
			}
			nTermsEnd := len(built.Terms) + 1
			for s := 0; s < built.Stats.States; s++ {
				for term := 0; term < nTermsEnd; term++ {
					dense := built.Lookup(s, term)
					if packed := p.Lookup(s, term); dense != packed || shipped.Lookup(s, term) != dense {
						t.Fatalf("action(%d,%d): dense %v/%d packed %v/%d",
							s, term, dense.Kind, dense.Arg, packed.Kind, packed.Arg)
					}
				}
				for nt := 0; nt < len(built.Nonterms); nt++ {
					dense := built.GotoState(s, nt)
					if packed := int(p.GotoState(int32(s), int32(nt))); dense != packed || shipped.GotoState(s, nt) != dense {
						t.Fatalf("goto(%d,%d): dense %d packed %d", s, nt, dense, packed)
					}
				}
			}
			if !reflect.DeepEqual(shipped.Choices, built.Choices) || !reflect.DeepEqual(p.ProdLHS, built.Packed().ProdLHS) {
				t.Fatal("choice lists or production left hand sides differ")
			}
			sz := shipped.Size()
			if sz != built.Size() {
				t.Fatalf("Size: shipped %+v, built %+v", sz, built.Size())
			}
			if sz.PackedBytes <= 0 || sz.PackedBytes >= sz.Bytes {
				t.Errorf("packed form (%d bytes) is not smaller than dense (%d bytes)", sz.PackedBytes, sz.Bytes)
			}
			if shipped.Stats.Conflicts != len(built.Conflicts) || shipped.Stats.SemBlocks != len(built.SemBlocks) {
				t.Errorf("shipped diagnostic counts %d/%d, built lists %d/%d",
					shipped.Stats.Conflicts, shipped.Stats.SemBlocks, len(built.Conflicts), len(built.SemBlocks))
			}
		})
	}
}

// TestShippedTablesLoadCheaply guards against a silent fallback to table
// construction: in a fresh child process, with each grammar already
// expanded, the first Tables() per target must allocate under 1 MB.
// Building the VAX tables allocates tens of megabytes; wrapping the
// shipped arrays around the grammar allocates the symbol maps and a hash
// of the grammar text. The check counts bytes, not time, so it does not
// depend on the machine.
func TestShippedTablesLoadCheaply(t *testing.T) {
	const limit = 1 << 20
	if os.Getenv("GGCG_TABLES_LOAD_CHILD") == "1" {
		var before, after runtime.MemStats
		for _, name := range target.Names() {
			mach := lookupTarget(t, name)
			if _, err := mach.Grammar(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			if _, err := mach.Tables(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n >= limit {
				t.Errorf("%s: first Tables() allocated %d bytes, want under %d", name, n, limit)
			} else {
				t.Logf("%s: first Tables() allocated %d bytes", name, n)
			}
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestShippedTablesLoadCheaply$", "-test.v")
	cmd.Env = append(os.Environ(), "GGCG_TABLES_LOAD_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	t.Logf("child process:\n%s", out)
}

// TestShippedTablesDriveCompilation reproduces the static/dynamic split of
// §3: the tables were constructed once, ahead of time, and ship as
// generated source; the shipped tables, never built in this process,
// drive a compilation that executes correctly.
func TestShippedTablesDriveCompilation(t *testing.T) {
	shipped, err := vax.Target.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if shipped.Action != nil {
		t.Fatal("the VAX tables were built in-process, not shipped")
	}
	u := cfront.MustCompile(`
int a[6];
int main() {
	int i, s = 0;
	for (i = 0; i < 6; i++) a[i] = i * 3;
	for (i = 0; i < 6; i++) s += a[i];
	return s;
}`)
	res, err := Compile(u, Options{Tables: shipped})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vaxsim.Assemble(res.Asm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := vaxsim.New(prog).Call("_main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 45 {
		t.Errorf("main = %d, want 45", got)
	}
}

// TestBlockSearchOnVAXDescription runs the bounded syntactic-block search
// of §3.2 over the real description. The input model over-approximates
// (every arity-valid tree, not only front-end trees), so findings are
// notifications, not failures — but inputs the front end can actually
// produce must never be among them, which the differential suites already
// guarantee. This records the diagnostic behaviour.
func TestBlockSearchOnVAXDescription(t *testing.T) {
	tb, err := vax.Target.Tables()
	if err != nil {
		t.Fatal(err)
	}
	blocks, complete := tablegen.CheckBlocks(tb, ir.TermArity, 4, 200000)
	t.Logf("bounded block search (depth 4, complete=%v): %d potential blocks over the arity-valid over-approximation",
		complete, len(blocks))
	// A statement-shaped prefix the front end generates must never block:
	// check a few known-good linearizations parse.
	good := []string{
		`(Assign.l (Name.l g) (Plus.l (Const.b 1) (Indir.l (Name.l g))))`,
		`(CBranch (Cmp.l:lt (Indir.l (Name.l g)) (Const.w 500)) (Lab L1))`,
		`(Ret.l (Indir.b (Name.b c)))`,
	}
	u := &ir.Unit{Globals: []ir.Global{
		{Name: "g", Type: ir.Long}, {Name: "c", Type: ir.Byte},
	}}
	f := &ir.Func{Name: "main"}
	for _, s := range good {
		f.Emit(ir.MustParse(s))
	}
	f.EmitLabel(1)
	f.Emit(&ir.Node{Op: ir.Ret, Type: ir.Void})
	u.Funcs = []*ir.Func{f}
	if _, err := Compile(u, Options{}); err != nil {
		t.Errorf("front-end-shaped trees blocked: %v", err)
	}
}
