// Package riscsim is an assembler and simulator for the load/store
// RISC-subset target (internal/risc), the second machine that proves the
// target.Machine seam. It is an ISA plug-in for the internal/sim core,
// which it shares with vaxsim — the directive set, label syntax, frame
// protocol, memory layout and step loop are the core's — so generated
// code for either target executes against the same differential oracles.
// This package supplies only the operand parser, the mnemonic handlers
// and the addressing-mode names of a deliberately minimal
// three-register instruction set:
// sixteen 64-bit registers, loads and stores as the only memory accesses,
// no condition codes (compare-and-branch instead), and immediates only in
// li/lfi/addi/push.
//
// Register semantics: an integer instruction of size suffix b/w/l reads
// the low 1/2/4 bytes of its source registers, extending per its own
// signedness, and writes its result sign- (or, for the u-forms, zero-)
// extended to 64 bits. Upper register bits are therefore never observable
// across instructions, which is what lets the generator match the IR
// interpreter's value semantics exactly (see internal/risc). Floating
// values occupy a full register as float64 bits; f-suffixed operations
// round results through float32 exactly as the IR interpreter does.
package riscsim

import (
	"fmt"
	"strings"

	"ggcg/internal/sim"
)

// AddrMode is an operand addressing mode. The machine is load/store, so
// the set is small: registers, displaced memory, absolute memory,
// immediates and code labels.
type AddrMode uint8

// Addressing modes.
const (
	MReg   AddrMode = iota // rN
	MDisp                  // d(rN) or (rN)
	MAbs                   // _name or _name+d
	MImm                   // $v
	MLabel                 // L7 or _name as a code target
)

// Operand is one parsed instruction operand.
type Operand struct {
	Mode AddrMode
	Reg  int
	Disp int32
	Sym  string
	Imm  int64
	FImm float64
	IsF  bool // immediate is floating
}

func (o Operand) String() string {
	switch o.Mode {
	case MReg:
		return sim.RegName(o.Reg)
	case MDisp:
		return fmt.Sprintf("%d(%s)", o.Disp, sim.RegName(o.Reg))
	case MAbs:
		if o.Disp != 0 {
			return fmt.Sprintf("%s+%d", o.Sym, o.Disp)
		}
		return o.Sym
	case MImm:
		if o.IsF {
			return fmt.Sprintf("$%g", o.FImm)
		}
		return fmt.Sprintf("$%d", o.Imm)
	case MLabel:
		return o.Sym
	}
	return "?"
}

// CodeLabel implements sim.Operand.
func (o Operand) CodeLabel() (string, bool) { return o.Sym, o.Mode == MLabel }

// Program and Instr are the core's, over RISC operands.
type (
	Program = sim.Program[Operand]
	Instr   = sim.Instr[Operand]
)

// Assemble parses assembly text into an executable program.
func Assemble(src string) (*Program, error) { return isa.Assemble(src) }

func parseOperand(s string) (Operand, error) {
	var o Operand
	if s == "" {
		return o, fmt.Errorf("empty operand")
	}
	switch {
	case strings.HasPrefix(s, "$"):
		var err error
		o.Mode = MImm
		o.Imm, o.FImm, o.IsF, err = sim.ParseImm(s[1:])
		return o, err
	case strings.HasSuffix(s, ")"):
		var err error
		o.Mode = MDisp
		o.Reg, o.Disp, _, err = sim.ParseDisp(s)
		return o, err
	}
	if r, ok := sim.ParseReg(s); ok {
		o.Mode, o.Reg = MReg, r
		return o, nil
	}
	sym, disp, label, err := sim.ParseSymbol(s)
	o.Mode, o.Sym, o.Disp = MAbs, sym, disp
	if label {
		o.Mode = MLabel
	}
	return o, err
}
