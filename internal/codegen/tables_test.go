package codegen

import (
	"bytes"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/ir"
	"ggcg/internal/tablegen"
	"ggcg/internal/vax"
	"ggcg/internal/vaxsim"
)

// TestShippedTablesDriveCompilation reproduces the static/dynamic split of
// §3: the tables are constructed once, serialized (as they would ship with
// a production compiler), decoded, and then drive a compilation that
// executes correctly.
func TestShippedTablesDriveCompilation(t *testing.T) {
	built, err := vax.Target.Tables()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("encoded tables: %d bytes for %d states", buf.Len(), built.Stats.States)
	shipped, err := tablegen.Decode(&buf)
	if err != nil {
		t.Fatal(err)
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
