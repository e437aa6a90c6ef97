package ggcg

import (
	"bytes"
	"strings"
	"testing"

	"ggcg/internal/corpus"
)

func TestCompileAndRun(t *testing.T) {
	out, err := Compile(`int main() { return 6 * 7; }`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.AsmLines == 0 || out.Stats.Trees == 0 {
		t.Errorf("stats not populated: %+v", out.Stats)
	}
	m, err := NewMachine(out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if r != 42 {
		t.Errorf("main() = %d, want 42", r)
	}
	if m.Steps() == 0 {
		t.Error("no instructions counted")
	}
}

func TestCompileBaseline(t *testing.T) {
	out, err := Compile(`int main() { return 6 * 7; }`, Config{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	// The baseline does not run the pattern matcher.
	if out.Stats.Shifts != 0 || out.Stats.Reduces != 0 {
		t.Errorf("baseline reported matcher stats: %+v", out.Stats)
	}
	m, err := NewMachine(out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if r != 42 {
		t.Errorf("baseline main() = %d, want 42", r)
	}
}

func TestCompileWithArguments(t *testing.T) {
	out, err := Compile(`int main(int x, int y) { return x - y; }`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Call("main", 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r != 42 {
		t.Errorf("main(50,8) = %d", r)
	}
}

func TestMachineReadGlobal(t *testing.T) {
	out, err := Compile(`int g; int main() { g = 1234; return 0; }`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(out.Asm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("main"); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadGlobal("g", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1234 {
		t.Errorf("g = %d", v)
	}
	if _, err := m.ReadGlobal("nosuch", 4); err == nil {
		t.Error("reading a missing global succeeded")
	}
}

// TestStaticDataPastMemory: a valid C program whose static data outgrows
// the simulated memory is refused by either target's assembler with an
// error naming the directive's line, instead of panicking in NewSim or
// wrapping its data onto the stack.
func TestStaticDataPastMemory(t *testing.T) {
	for _, tgt := range Targets() {
		for _, src := range []string{
			`int a[400000]; int b = 7; int main() { return b; }`,
			`int a[400000]; int main() { a[0] = 1; return a[0]; }`,
		} {
			out, err := Compile(src, Config{Target: tgt})
			if err != nil {
				t.Fatalf("%s: compile: %v", tgt, err)
			}
			_, err = NewSim(tgt, out.Asm)
			if err == nil || !strings.Contains(err.Error(), ": line 2: static data passes the end") {
				t.Errorf("%s %q: NewSim error = %v, want the line of the oversized data", tgt, src, err)
			}
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(`int main() { return x; }`, Config{}); err == nil {
		t.Error("undeclared identifier compiled")
	}
	if _, err := Compile(`@`, Config{}); err == nil {
		t.Error("garbage compiled")
	}
	if _, err := NewMachine("not assembly at all $$$"); err == nil {
		t.Error("garbage assembled")
	}
}

func TestTraceOutput(t *testing.T) {
	var buf bytes.Buffer
	_, err := Compile(`int main() { return 1; }`, Config{Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "shift") || !strings.Contains(buf.String(), "accept") {
		t.Errorf("trace output missing actions:\n%s", buf.String())
	}
}

// The trace listing is ordered per matcher action, so a compile that asks
// for function workers must still produce the sequential listing: the
// observer wanting the trace is what keeps codegen on one goroutine.
func TestTraceIgnoresWorkers(t *testing.T) {
	src := corpus.Large(4)
	var seq, par bytes.Buffer
	if _, err := Compile(src, Config{Trace: &seq}); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(src, Config{Trace: &par, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if seq.Len() == 0 || seq.String() != par.String() {
		t.Errorf("Workers: 4 listing (%d bytes) differs from the sequential one (%d bytes): %s",
			par.Len(), seq.Len(), firstDiff(seq.String(), par.String()))
	}
}

func TestInfo(t *testing.T) {
	info, err := Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.GenericProductions <= 0 || info.Productions <= info.GenericProductions {
		t.Errorf("replication did not grow the grammar: %+v", info)
	}
	if info.States <= 0 || info.Terminals <= 0 || info.Nonterminals <= 0 {
		t.Errorf("table statistics empty: %+v", info)
	}
	if info.ChainRules == 0 {
		t.Error("no chain rules reported; the conversion sub-grammar is missing")
	}
	if info.TableBytes <= 0 || info.PackedTableBytes <= 0 {
		t.Errorf("table sizes not measured: %+v", info)
	}
	if info.PackedTableBytes >= info.TableBytes {
		t.Errorf("packed tables (%d bytes) not smaller than dense (%d bytes)",
			info.PackedTableBytes, info.TableBytes)
	}
}

func TestBuildTablesBothWaysAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("naive construction is slow")
	}
	fast, err := BuildTables(false)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := BuildTables(true)
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Errorf("state counts differ: improved %d, naive %d", fast, slow)
	}
}

func TestNoReverseOpsConfig(t *testing.T) {
	src := `
int a, b, c, d;
int main() { a = 1; b = 2; c = 3; d = 4; return (a + b) - ((b + c) * (a + d)); }`
	with, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Compile(src, Config{NoReverseOps: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(asm string) int64 {
		m, err := NewMachine(asm)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Call("main")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := run(with.Asm), run(without.Asm); a != b {
		t.Errorf("configurations disagree: %d vs %d", a, b)
	}
}
