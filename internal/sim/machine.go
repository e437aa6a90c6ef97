package sim

import (
	"fmt"
	"math"

	"ggcg/internal/obs"
)

// Word is a machine's register word.
type Word interface{ ~uint32 | ~uint64 }

// ISA is what an instruction set contributes to the core. M is the ISA's
// machine type, which embeds Machine and carries any state of its own
// (the VAX condition codes); handlers receive it.
type ISA[W Word, O Operand, M any] struct {
	// Name prefixes assembly and execution errors ("vaxsim", "riscsim").
	Name string

	// Parse parses one operand.
	Parse func(string) (O, error)

	// Exec maps mnemonics to handlers; it also defines the subset the
	// assembler accepts.
	Exec map[string]func(M, *Instr[O]) error

	// Builtins are library routines a call may name without a
	// definition: they read two argument words and return a result in r0,
	// modifying no other register (§5.3.2).
	Builtins map[string]func(a, b uint32) (uint32, error)

	// ModeNames labels the profile's addressing-mode counters, indexed as
	// handlers index Machine.ModeCounts.
	ModeNames []string

	// Reset, when set, clears the ISA's own machine state.
	Reset func(M)
}

// Machine is the simulated processor the ISAs share: sixteen registers of
// word W (ap, fp, sp and pc are r12..r15), a byte-addressable
// little-endian memory of DefaultMemory bytes with 32-bit addresses, and
// the step loop. It implements target.Sim.
type Machine[W Word, O Operand, M any] struct {
	isa  *ISA[W, O, M]
	self M

	Prog *Program[O]
	R    [16]W
	Mem  []byte

	// PC is the executing instruction's index; a handler transfers
	// control by setting NextPC, which the step loop moves into PC.
	PC, NextPC int
	frames     [][6]W // r6..r11 saved by each active call

	// Counts breaks the executed instructions down by mnemonic, used by
	// the dynamic code-quality experiment (E3).
	Counts   map[string]int64
	MaxSteps int64
	steps    int64

	// ModeCounts tallies operand evaluations by addressing mode, as the
	// ISA's handlers index it (see ISA.ModeNames). Cheap fixed-slot
	// increments, so they are always on.
	ModeCounts [16]int64

	// fnSteps attributes executed instructions to the function (call
	// stack top) executing them; nil until EnableFuncProfile.
	fnSteps map[string]int64
	fnStack []string
}

// retSentinel is the return "pc" of the outermost frame.
const retSentinel = -2

// DefaultMemory is the simulated memory size.
const DefaultMemory = 1 << 20

// ExecError describes a runtime fault of the simulated machine: the
// failing instruction by program counter and assembly source line, its
// disassembly, and the underlying cause. Every instruction-level fault —
// including a Go panic recovered out of a handler — surfaces as an
// ExecError from Call, never as a panic of the simulator itself.
type ExecError struct {
	Sim   string // simulator name, the message prefix
	PC    int    // index into Program.Instrs
	Line  int    // assembly source line of the instruction
	Instr string // disassembled instruction
	Err   error  // underlying cause
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("%s: pc %d, line %d (%s): %v", e.Sim, e.PC, e.Line, e.Instr, e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }

// Init readies m, embedded in self, to run p: default memory, a
// 50M-instruction step budget, and a Reset.
func (m *Machine[W, O, M]) Init(isa *ISA[W, O, M], p *Program[O], self M) {
	m.isa, m.self, m.Prog = isa, self, p
	m.Mem = make([]byte, DefaultMemory)
	m.Counts = make(map[string]int64)
	m.MaxSteps = 50_000_000
	m.Reset()
}

// Reset clears registers and memory and reapplies data initialization.
func (m *Machine[W, O, M]) Reset() {
	m.R = [16]W{}
	clear(m.Mem)
	for _, di := range m.Prog.init {
		copy(m.Mem[di.addr:], di.bytes)
	}
	m.R[RegSP] = W(len(m.Mem) - 64)
	m.frames = m.frames[:0]
	if m.isa.Reset != nil {
		m.isa.Reset(m.self)
	}
}

// Steps returns the number of instructions executed so far.
func (m *Machine[W, O, M]) Steps() int64 { return m.steps }

// Global returns the address of a data symbol.
func (m *Machine[W, O, M]) Global(name string) (uint32, bool) {
	a, ok := m.Prog.Globals[name]
	return a, ok
}

// Call resets the machine, pushes the given longword arguments and
// executes the named function until it returns, yielding r0 as a signed
// 32-bit result. Arguments are pushed so the first appears at 4(ap),
// matching the calling convention the code generators emit.
func (m *Machine[W, O, M]) Call(name string, args ...int64) (int64, error) {
	m.Reset()
	return m.CallPreservingState(name, args...)
}

// CallPreservingState is Call without the Reset, so globals keep their
// values across calls.
func (m *Machine[W, O, M]) CallPreservingState(name string, args ...int64) (int64, error) {
	entry, ok := m.Prog.Labels[name]
	if !ok {
		return 0, fmt.Errorf("%s: no function %q", m.isa.Name, name)
	}
	for i := len(args) - 1; i >= 0; i-- {
		m.Push32(uint32(args[i]))
	}
	m.fnStack = m.fnStack[:0]
	m.enter(uint32(len(args)), name, retSentinel, entry)
	m.PC = entry

	for {
		if m.PC == retSentinel {
			return int64(int32(uint32(m.R[0]))), nil
		}
		if m.PC < 0 || m.PC >= len(m.Prog.Instrs) {
			return 0, fmt.Errorf("%s: pc %d out of range", m.isa.Name, m.PC)
		}
		if m.steps++; m.steps > m.MaxSteps {
			return 0, fmt.Errorf("%s: step limit %d exceeded", m.isa.Name, m.MaxSteps)
		}
		in := &m.Prog.Instrs[m.PC]
		m.Counts[in.Mn]++
		if m.fnSteps != nil && len(m.fnStack) > 0 {
			m.fnSteps[m.fnStack[len(m.fnStack)-1]]++
		}
		m.NextPC = m.PC + 1
		h := m.isa.Exec[in.Mn]
		if h == nil {
			return 0, m.fault(in, fmt.Errorf("unknown instruction %q", in.Mn))
		}
		if err := m.step(in, h); err != nil {
			return 0, m.fault(in, err)
		}
		m.PC = m.NextPC
	}
}

func (m *Machine[W, O, M]) fault(in *Instr[O], err error) error {
	return &ExecError{Sim: m.isa.Name, PC: m.PC, Line: in.Line, Instr: in.String(), Err: err}
}

// step runs one handler, converting a panic — an out-of-range register
// number in a hand-built Program, say — into an ordinary error so the
// fault is reported with its instruction context instead of unwinding
// through the caller.
func (m *Machine[W, O, M]) step(in *Instr[O], h func(M, *Instr[O]) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return h(m.self, in)
}

// Calls transfers to the function sym at instruction entry, whose n
// argument words the caller has pushed: the simplified frame protocol
// described in DESIGN.md. It pushes the argument count, the old ap, fp
// and return pc, points ap at the count word and fp at the new frame, and
// saves r6-r11 in lieu of the VAX entry mask.
func (m *Machine[W, O, M]) Calls(n uint32, sym string, entry int) {
	m.enter(n, sym, m.PC+1, entry)
	m.NextPC = entry
}

func (m *Machine[W, O, M]) enter(n uint32, sym string, retPC, entry int) {
	if m.fnSteps != nil {
		m.fnStack = append(m.fnStack, sym)
	}
	m.Push32(n)
	ap := m.R[RegSP]
	m.Push32(uint32(m.R[RegAP]))
	m.Push32(uint32(m.R[RegFP]))
	m.Push32(uint32(int32(retPC)))
	m.R[RegFP] = m.R[RegSP]
	m.R[RegAP] = ap
	var saved [6]W
	copy(saved[:], m.R[6:12])
	m.frames = append(m.frames, saved)
}

// Ret unwinds the frame Calls built: r6-r11 are restored, the saved
// pc, fp and ap popped, and the arguments discarded.
func (m *Machine[W, O, M]) Ret() error {
	if len(m.frames) == 0 {
		return fmt.Errorf("ret with no active frame")
	}
	if m.fnSteps != nil && len(m.fnStack) > 0 {
		m.fnStack = m.fnStack[:len(m.fnStack)-1]
	}
	copy(m.R[6:12], m.frames[len(m.frames)-1][:])
	m.frames = m.frames[:len(m.frames)-1]
	m.R[RegSP] = m.R[RegFP]
	retPC := int(int32(m.Pop32()))
	m.R[RegFP] = W(m.Pop32())
	m.R[RegAP] = W(m.Pop32())
	n := m.Pop32()
	m.R[RegSP] = W(m.Addr(RegSP) + 4*n)
	m.NextPC = retPC
	return nil
}

// Builtin runs the ISA's library routine sym, if it has one, in place of
// a call with n argument words: the result lands in r0 and the arguments
// are popped.
func (m *Machine[W, O, M]) Builtin(n uint32, sym string) (bool, error) {
	f, ok := m.isa.Builtins[sym]
	if !ok {
		return false, nil
	}
	sp := m.Addr(RegSP)
	r, err := f(uint32(m.LoadMem(sp, 4)), uint32(m.LoadMem(sp+4, 4)))
	if err != nil {
		return true, err
	}
	m.R[0] = W(r)
	m.R[RegSP] = W(sp + 4*n)
	return true, nil
}

// Addr reads register r as a 32-bit address.
func (m *Machine[W, O, M]) Addr(r int) uint32 { return uint32(m.R[r]) }

// Push32 pushes a longword.
func (m *Machine[W, O, M]) Push32(v uint32) {
	m.R[RegSP] = W(m.Addr(RegSP) - 4)
	m.StoreMem(m.Addr(RegSP), 4, uint64(v))
}

// Pop32 pops a longword.
func (m *Machine[W, O, M]) Pop32() uint32 {
	v := uint32(m.LoadMem(m.Addr(RegSP), 4))
	m.R[RegSP] = W(m.Addr(RegSP) + 4)
	return v
}

// LoadMem reads size bytes little-endian; addresses wrap modulo the
// memory size.
func (m *Machine[W, O, M]) LoadMem(addr uint32, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.Mem[(addr+uint32(i))%uint32(len(m.Mem))]) << (8 * i)
	}
	return v
}

// StoreMem writes the low size bytes of v little-endian.
func (m *Machine[W, O, M]) StoreMem(addr uint32, size int, v uint64) {
	for i := 0; i < size; i++ {
		m.Mem[(addr+uint32(i))%uint32(len(m.Mem))] = byte(v >> (8 * i))
	}
}

// Extend sign- or zero-extends the low size bytes of v (1, 2 or 4) to 64
// bits.
func Extend(v uint64, size int, unsigned bool) int64 {
	switch size {
	case 1:
		if unsigned {
			return int64(uint8(v))
		}
		return int64(int8(v))
	case 2:
		if unsigned {
			return int64(uint16(v))
		}
		return int64(int16(v))
	default:
		if unsigned {
			return int64(uint32(v))
		}
		return int64(int32(v))
	}
}

// EnableFuncProfile turns on per-function step attribution: each executed
// instruction is charged to the function on top of the simulated call
// stack. Off by default (it costs a map increment per step).
func (m *Machine[W, O, M]) EnableFuncProfile() {
	if m.fnSteps == nil {
		m.fnSteps = make(map[string]int64)
	}
}

// Profile snapshots the machine's dynamic execution profile: opcode
// frequencies, operand addressing-mode frequencies and, when enabled,
// per-function step counts.
func (m *Machine[W, O, M]) Profile() obs.SimProfile {
	p := obs.SimProfile{Steps: m.steps}
	if len(m.Counts) > 0 {
		p.Opcodes = make(map[string]int64, len(m.Counts))
		for mn, n := range m.Counts {
			p.Opcodes[mn] = n
		}
	}
	p.Modes = make(map[string]int64)
	for i, name := range m.isa.ModeNames {
		if n := m.ModeCounts[i]; n > 0 {
			p.Modes[name] = n
		}
	}
	if len(m.fnSteps) > 0 {
		p.FuncSteps = make(map[string]int64, len(m.fnSteps))
		for fn, n := range m.fnSteps {
			p.FuncSteps[fn] = n
		}
	}
	return p
}

func (m *Machine[W, O, M]) global(name string) (uint32, error) {
	a, ok := m.Global(name)
	if !ok {
		return 0, fmt.Errorf("%s: no global %q", m.isa.Name, name)
	}
	return a, nil
}

// ReadGlobal reads size bytes of the named global as a signed integer.
func (m *Machine[W, O, M]) ReadGlobal(name string, size int) (int64, error) {
	a, err := m.global(name)
	if err != nil {
		return 0, err
	}
	return Extend(m.LoadMem(a, size), size, false), nil
}

// ReadGlobalFloat reads the named global as a 4- or 8-byte floating
// value.
func (m *Machine[W, O, M]) ReadGlobalFloat(name string, size int) (float64, error) {
	a, err := m.global(name)
	if err != nil {
		return 0, err
	}
	if size == 4 {
		return float64(math.Float32frombits(uint32(m.LoadMem(a, 4)))), nil
	}
	return math.Float64frombits(m.LoadMem(a, 8)), nil
}

// WriteGlobal stores a signed integer into the named global.
func (m *Machine[W, O, M]) WriteGlobal(name string, size int, v int64) error {
	a, err := m.global(name)
	if err != nil {
		return err
	}
	m.StoreMem(a, size, uint64(v))
	return nil
}
