package sim_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/codegen"
	_ "ggcg/internal/risc" // registers the RISC backend
	"ggcg/internal/riscsim"
	"ggcg/internal/sim"
	"ggcg/internal/target"
	_ "ggcg/internal/vax" // registers the VAX backend
	"ggcg/internal/vaxsim"
)

// machine is the surface of an ISA's machine the shared test drives.
type machine interface {
	target.Sim
	CallPreservingState(name string, args ...int64) (int64, error)
}

// isa is one plug-in under test: how to build its machine and the same
// programs written in its syntax.
type isa struct {
	name   string // the error prefix
	target string // the backend generating code for it

	// load assembles src and returns its machine, with a step budget of
	// maxSteps when positive. mutate, when set, may rewrite the first
	// instruction's mnemonic and its first operand's register number
	// first, the only way to reach the execution-time checks the
	// assembler would otherwise reject.
	load func(src string, maxSteps int64, mutate func(mn *string, reg *int)) (machine, error)

	calls   string // _sub(a, b) = a-b through ap; _fact(n), recursive, keeps n in r6
	counter string // _inc increments and returns the global _n
	initial string // _bump adds 5 to the global _k, initialised to 7, and returns it
	loop    string // _f never returns
	div     string // _f divides by zero in its second instruction
	regs    string // _f moves between two registers in its first instruction

	divMn, divCause string
}

var isas = []isa{
	{
		name: "vaxsim", target: "vax",
		load: func(src string, maxSteps int64, mutate func(*string, *int)) (machine, error) {
			p, err := vaxsim.Assemble(src)
			if err != nil {
				return nil, err
			}
			if mutate != nil {
				mutate(&p.Instrs[0].Mn, &p.Instrs[0].Ops[0].Reg)
			}
			m := vaxsim.New(p)
			if maxSteps > 0 {
				m.MaxSteps = maxSteps
			}
			return m, nil
		},
		calls: `.text
_sub:	.word 0
	subl3 8(ap),4(ap),r0
	ret
_fact:	.word 0
	movl 4(ap),r6
	cmpl r6,$1
	jgtr L1
	movl $1,r0
	ret
L1:	subl3 $1,r6,r1
	pushl r1
	calls $1,_fact
	mull3 r6,r0,r0
	ret
`,
		counter: `.data
.comm _n,4
.text
_inc:	.word 0
	incl _n
	movl _n,r0
	ret
`,
		initial: `.data
.align 2
_k:	.long 7
.text
_bump:	.word 0
	addl2 $5,_k
	movl _k,r0
	ret
`,
		loop: "_f:\t.word 0\nL1:\tjbr L1\n",
		div:  "_f:\t.word 0\n\tmovl $5,r1\n\tdivl3 $0,r1,r0\n\tret\n",
		regs: "_f:\t.word 0\n\tmovl r6,r5\n\tret\n",

		divMn: "divl3", divCause: "integer divide by zero",
	},
	{
		name: "riscsim", target: "risc",
		load: func(src string, maxSteps int64, mutate func(*string, *int)) (machine, error) {
			p, err := riscsim.Assemble(src)
			if err != nil {
				return nil, err
			}
			if mutate != nil {
				mutate(&p.Instrs[0].Mn, &p.Instrs[0].Ops[0].Reg)
			}
			m := riscsim.New(p)
			if maxSteps > 0 {
				m.MaxSteps = maxSteps
			}
			return m, nil
		},
		calls: `.text
_sub:
	ldl	r0,4(ap)
	ldl	r1,8(ap)
	subl	r0,r0,r1
	ret
_fact:
	ldl	r6,4(ap)
	li	r1,$1
	bgtl	r6,r1,L1
	li	r0,$1
	ret
L1:
	addi	r1,r6,$-1
	push	r1
	call	$1,_fact
	mull	r0,r6,r0
	ret
`,
		counter: `.data
.comm _n,4
.text
_inc:
	ldl	r0,_n
	addi	r0,r0,$1
	stl	r0,_n
	ret
`,
		initial: `.data
.align 2
_k:	.long 7
.text
_bump:
	ldl	r0,_k
	addi	r0,r0,$5
	stl	r0,_k
	ret
`,
		loop: "_f:\nL1:\tjmp L1\n",
		div:  "_f:\n\tli r1,$0\n\tdivl r0,r0,r1\n\tret\n",
		regs: "_f:\n\tmv r5,r6\n\tret\n",

		divMn: "divl", divCause: "divide by zero",
	},
}

// TestCore runs the behaviour the sim core owns — the frame protocol,
// state across calls, the step budget, fault reporting and the static
// data bound — over every ISA plug-in.
func TestCore(t *testing.T) {
	for _, isa := range isas {
		t.Run(isa.name, func(t *testing.T) {
			load := func(src string, maxSteps int64, mutate func(*string, *int)) machine {
				t.Helper()
				m, err := isa.load(src, maxSteps, mutate)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			execError := func(err error) *sim.ExecError {
				t.Helper()
				var ee *sim.ExecError
				if !errors.As(err, &ee) {
					t.Fatalf("error %v is %T, want *sim.ExecError", err, err)
				}
				return ee
			}

			t.Run("args via ap and recursion", func(t *testing.T) {
				m := load(isa.calls, 0, nil)
				if r, err := m.Call("_sub", 30, 12); err != nil || r != 18 {
					t.Errorf("sub(30, 12) = %d, %v; want 18", r, err)
				}
				if r, err := m.Call("_fact", 6); err != nil || r != 720 {
					t.Errorf("fact(6) = %d, %v; want 720", r, err)
				}
				_, err := m.Call("_missing")
				if want := isa.name + `: no function "_missing"`; err == nil || err.Error() != want {
					t.Errorf("calling an undefined function: %v, want %s", err, want)
				}
			})

			t.Run("CallPreservingState", func(t *testing.T) {
				m := load(isa.counter, 0, nil)
				for i, call := range []func(string, ...int64) (int64, error){m.Call, m.CallPreservingState, m.Call} {
					want := []int64{1, 2, 1}[i]
					if r, err := call("_inc"); err != nil || r != want {
						t.Errorf("call %d = %d, %v; want %d", i, r, err, want)
					}
				}
				if n, err := m.ReadGlobal("_n", 4); err != nil || n != 1 {
					t.Errorf("_n = %d, %v; want 1", n, err)
				}
			})

			t.Run("Call starts from initialised memory", func(t *testing.T) {
				// Each Call must see the data initialisation, however the
				// calls before it left memory.
				m := load(isa.initial, 0, nil)
				for i, step := range []struct {
					call func(string, ...int64) (int64, error)
					want int64
				}{{m.Call, 12}, {m.CallPreservingState, 17}, {m.CallPreservingState, 22}, {m.Call, 12}, {m.Call, 12}} {
					if r, err := step.call("_bump"); err != nil || r != step.want {
						t.Errorf("call %d = %d, %v; want %d", i, r, err, step.want)
					}
				}
			})

			t.Run("stack overflow into data", func(t *testing.T) {
				// a fills memory to just above the initial stack, so the
				// call to f pushes into a[261099].
				const prog = `int a[261100];
int f(int x) { int y[8]; y[0] = x; return y[0] + 1; }
int main() { a[261099] = 5; f(1); return a[261099]; }`
				mach, err := target.Lookup(isa.target)
				if err != nil {
					t.Fatal(err)
				}
				res, err := codegen.Compile(cfront.MustCompile(prog), codegen.Options{Target: mach})
				if err != nil {
					t.Fatal(err)
				}
				r, err := load(res.Asm, 0, nil).Call("_main")
				if err == nil {
					t.Fatalf("main() = %d with the stack overwriting a[261099]; want a stack overflow error", r)
				}
				if ee := execError(err); !strings.HasPrefix(ee.Err.Error(), "stack overflow into static data") {
					t.Errorf("error %v, want a stack overflow into static data", err)
				}
				// With room for the stack the same code runs.
				small := strings.Replace(prog, "261100", "261000", 1)
				small = strings.ReplaceAll(small, "261099", "260999")
				res, err = codegen.Compile(cfront.MustCompile(small), codegen.Options{Target: mach})
				if err != nil {
					t.Fatal(err)
				}
				if r, err := load(res.Asm, 0, nil).Call("_main"); err != nil || r != 5 {
					t.Errorf("with room for the stack: main() = %d, %v; want 5", r, err)
				}
			})

			t.Run("step limit", func(t *testing.T) {
				_, err := load(isa.loop, 100, nil).Call("_f")
				if want := isa.name + ": step limit 100 exceeded"; err == nil || err.Error() != want {
					t.Errorf("infinite loop: %v, want %s", err, want)
				}
			})

			t.Run("fault", func(t *testing.T) {
				_, err := load(isa.div, 0, nil).Call("_f")
				ee := execError(err)
				if ee.PC != 1 || ee.Line != 3 || !strings.HasPrefix(ee.Instr, isa.divMn+"\t") {
					t.Errorf("PC, Line, Instr = %d, %d, %q; want 1, 3, %s...", ee.PC, ee.Line, ee.Instr, isa.divMn)
				}
				want := fmt.Sprintf("%s: pc 1, line 3 (%s): %s", isa.name, ee.Instr, isa.divCause)
				if err.Error() != want {
					t.Errorf("message = %q, want %q", err.Error(), want)
				}
				if ee.Unwrap() == nil || ee.Unwrap().Error() != isa.divCause {
					t.Errorf("Unwrap() = %v, want %s", ee.Unwrap(), isa.divCause)
				}
			})

			t.Run("unknown instruction", func(t *testing.T) {
				_, err := load(isa.regs, 0, func(mn *string, _ *int) { *mn = "frob" }).Call("_f")
				ee := execError(err)
				if ee.PC != 0 || ee.Line != 2 || !strings.HasPrefix(ee.Instr, "frob\t") {
					t.Errorf("PC, Line, Instr = %d, %d, %q; want 0, 2, frob...", ee.PC, ee.Line, ee.Instr)
				}
				if ee.Unwrap() == nil || ee.Unwrap().Error() != `unknown instruction "frob"` {
					t.Errorf("Unwrap() = %v", ee.Unwrap())
				}
			})

			t.Run("handler panic", func(t *testing.T) {
				// Register 99 makes the handler index past the register
				// file; the step loop must report that as a fault, not
				// unwind.
				_, err := load(isa.regs, 0, func(_ *string, reg *int) { *reg = 99 }).Call("_f")
				ee := execError(err)
				if ee.PC != 0 || ee.Line != 2 || !strings.HasPrefix(ee.Err.Error(), "panic: ") {
					t.Errorf("PC, Line, Err = %d, %d, %v; want 0, 2, a recovered panic", ee.PC, ee.Line, ee.Err)
				}
			})

			t.Run("data bound", func(t *testing.T) {
				text := isa.calls
				fits := fmt.Sprintf(".data\n.space %d\n", sim.DefaultMemory-sim.DataBase) + text
				load(fits, 0, nil) // data filling memory exactly
				for _, data := range []string{
					".data\n.space 2000000\n.long 1\n",                    // an initialised word past the end
					".data\n.comm _a,1600000\n.align 2\n_b:\n\t.long 7\n", // int a[400000]; int b = 7;
					".data\n.comm _a,1600000\n",                           // no initialiser after it
					fmt.Sprintf(".data\n.space %d\n", sim.DefaultMemory-sim.DataBase+1),
					".data\n.space 4294963200\n.long 1\n", // would wrap a 32-bit cursor to 0
				} {
					_, err := isa.load(data+text, 0, nil)
					if want := isa.name + ": line 2: static data passes the end"; err == nil || !strings.HasPrefix(err.Error(), want) {
						t.Errorf("%q: err = %v, want %s...", data, err, want)
					}
				}
			})
		})
	}
}
