package riscsim

import (
	"strings"
	"testing"
)

// run assembles src and calls fn, failing the test on any error.
func run(t *testing.T, src, fn string, args ...int64) (int64, *Machine) {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p)
	r, err := m.Call(fn, args...)
	if err != nil {
		t.Fatalf("call %s: %v", fn, err)
	}
	return r, m
}

func TestCallBasic(t *testing.T) {
	r, m := run(t, `
.globl _f
_f:
	li	r0,$40
	li	r1,$2
	addl	r0,r0,r1
	ret
`, "_f")
	if r != 42 {
		t.Errorf("f() = %d, want 42", r)
	}
	if m.Steps() != 4 {
		t.Errorf("Steps = %d, want 4", m.Steps())
	}
	if m.Counts["li"] != 2 || m.Counts["addl"] != 1 || m.Counts["ret"] != 1 {
		t.Errorf("counts = %v", m.Counts)
	}
}

// TestArgsAndCall exercises the vaxsim-compatible frame protocol: the
// caller pushes arguments right to left, call records the count, and the
// callee reads them at 4(ap), 8(ap), ...
func TestArgsAndCall(t *testing.T) {
	src := `
.globl _sub2
_sub2:
	ldl	r0,4(ap)
	ldl	r1,8(ap)
	subl	r0,r0,r1
	ret
.globl _f
_f:
	ldl	r1,8(ap)
	push	r1
	ldl	r1,4(ap)
	push	r1
	call	$2,_sub2
	ret
`
	r, _ := run(t, src, "_f", 50, 8)
	if r != 42 {
		t.Errorf("f(50, 8) = %d, want 42", r)
	}
	// Direct call of the leaf too: Call marshals args the same way.
	r, _ = run(t, src, "_sub2", 7, 3)
	if r != 4 {
		t.Errorf("sub2(7, 3) = %d, want 4", r)
	}
}

// TestSizeSemantics: a b-suffixed producer writes its result extended from
// the low byte, so only the low size bits carry meaning between
// instructions.
func TestSizeSemantics(t *testing.T) {
	r, _ := run(t, `
_f:
	li	r0,$200
	li	r1,$200
	addb	r0,r0,r1
	ret
`, "_f")
	// 200+200 = 400 = 0x190; the low byte 0x90 reads back as -112.
	if r != -112 {
		t.Errorf("addb 200,200 = %d, want -112", r)
	}
}

func TestUnsignedDivision(t *testing.T) {
	r, _ := run(t, `
_f:
	li	r0,$-2
	li	r1,$2
	divul	r0,r0,r1
	ret
`, "_f")
	// -2 reads as 0xFFFFFFFE unsigned; half of that is 0x7FFFFFFF.
	if r != 0x7FFFFFFF {
		t.Errorf("divul -2,2 = %d, want %d", r, int64(0x7FFFFFFF))
	}
}

// TestFloatRounding: f-suffixed operations round through float32, d forms
// do not — 2^24 + 1 is the first integer float32 cannot represent.
func TestFloatRounding(t *testing.T) {
	r, _ := run(t, `
_f:
	lfi	r0,$16777216
	lfi	r1,$1
	addf	r2,r0,r1
	cvtfl	r0,r2
	ret
`, "_f")
	if r != 16777216 {
		t.Errorf("float32 add = %d, want 16777216", r)
	}
	r, _ = run(t, `
_d:
	lfi	r0,$16777216
	lfi	r1,$1
	addd	r2,r0,r1
	cvtdl	r0,r2
	ret
`, "_d")
	if r != 16777217 {
		t.Errorf("float64 add = %d, want 16777217", r)
	}
}

// TestGlobalsAndMemory covers the data directives, loads and stores, la,
// register-displaced addressing and ReadGlobal — the load/store half of
// the machine.
func TestGlobalsAndMemory(t *testing.T) {
	p, err := Assemble(`
.data
.align 2
_g:
	.long 7
.comm _h,4
.text
.globl _f
_f:
	la	r1,_g
	ldl	r0,(r1)
	addl	r0,r0,r0
	stl	r0,_h
	addi	r1,r1,$4
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	r, err := m.Call("_f")
	if err != nil {
		t.Fatal(err)
	}
	if r != 14 {
		t.Errorf("f() = %d, want 14", r)
	}
	h, err := m.ReadGlobal("_h", 4)
	if err != nil {
		t.Fatal(err)
	}
	if h != 14 {
		t.Errorf("_h = %d, want 14", h)
	}
	if _, err := m.ReadGlobal("_nope", 4); err == nil {
		t.Error("ReadGlobal of an unknown symbol succeeded")
	}
}

// TestBranchLoop: compare-and-branch plus jmp, the machine's whole
// control-flow vocabulary, summing 1..5.
func TestBranchLoop(t *testing.T) {
	r, _ := run(t, `
_f:
	li	r0,$0
	li	r1,$1
	li	r2,$5
L1:
	bgtl	r1,r2,L2
	addl	r0,r0,r1
	addi	r1,r1,$1
	jmp	L1
L2:
	ret
`, "_f")
	if r != 15 {
		t.Errorf("sum 1..5 = %d, want 15", r)
	}
}

// TestFrameSlots: enter reserves locals below fp; stores and loads through
// negative fp displacements round-trip (the spill path of the generator).
func TestFrameSlots(t *testing.T) {
	r, _ := run(t, `
_f:
	enter	$8
	li	r1,$9
	stl	r1,-4(fp)
	li	r1,$0
	ldl	r0,-4(fp)
	ret
`, "_f")
	if r != 9 {
		t.Errorf("f() = %d, want 9", r)
	}
}

func TestAssembleRejectsUnknownInstruction(t *testing.T) {
	_, err := Assemble("_f:\n\tfnord\tr0,r1\n\tret\n")
	if err == nil {
		t.Fatal("unknown mnemonic assembled")
	}
	if !strings.Contains(err.Error(), "fnord") {
		t.Errorf("error %q does not name the mnemonic", err)
	}
}
