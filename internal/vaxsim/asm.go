// Package vaxsim is an assembler and simulator for the subset of the
// VAX-11/780 that the code generators in this repository emit. It stands in
// for the hardware and the UNIX assembler the paper's experiment ran on,
// letting generated code be executed and validated differentially against
// an intermediate-representation interpreter (see DESIGN.md §2).
//
// It is an ISA plug-in for the internal/sim core, which owns the
// assembler front end, memory, the calls/ret frame protocol and the step
// loop. This package supplies the VAX operand parser, the mnemonic
// handlers, the condition codes, the _udiv/_urem builtins and the
// addressing-mode names. The subset covers the integer and floating
// move/convert/arithmetic/logic instructions with their 2- and 3-operand
// forms, compares and tests, the PCC-style jump pseudo-instructions, and
// the general addressing modes (register, register deferred,
// displacement, displacement indexed, absolute, immediate, autoincrement
// and autodecrement).
package vaxsim

import (
	"fmt"
	"strings"

	"ggcg/internal/sim"
)

// AddrMode is an operand addressing mode.
type AddrMode uint8

// Addressing modes.
const (
	MReg     AddrMode = iota // rN
	MRegDef                  // (rN)
	MDisp                    // d(rN)
	MAbs                     // _name or _name+d
	MImm                     // $v
	MAutoInc                 // (rN)+
	MAutoDec                 // -(rN)
	MLabel                   // L7 or _name as a code target
)

// Operand is one parsed instruction operand. Index >= 0 adds the
// size-scaled index register of the VAX indexed addressing mode, written
// base[rX]. Deferred marks the '*' prefix: the addressed longword holds
// the operand's address.
type Operand struct {
	Mode     AddrMode
	Reg      int
	Index    int // -1 when absent
	Disp     int32
	Sym      string
	Imm      int64
	FImm     float64
	IsF      bool // immediate is floating
	Deferred bool
}

func (o Operand) String() string {
	pfx := ""
	if o.Deferred {
		pfx = "*"
	}
	base := ""
	switch o.Mode {
	case MReg:
		base = sim.RegName(o.Reg)
	case MRegDef:
		base = "(" + sim.RegName(o.Reg) + ")"
	case MDisp:
		base = fmt.Sprintf("%d(%s)", o.Disp, sim.RegName(o.Reg))
	case MAbs:
		base = o.Sym
		if o.Disp != 0 {
			base += fmt.Sprintf("+%d", o.Disp)
		}
	case MImm:
		if o.IsF {
			base = fmt.Sprintf("$%g", o.FImm)
		} else {
			base = fmt.Sprintf("$%d", o.Imm)
		}
	case MAutoInc:
		base = "(" + sim.RegName(o.Reg) + ")+"
	case MAutoDec:
		base = "-(" + sim.RegName(o.Reg) + ")"
	case MLabel:
		base = o.Sym
	}
	if o.Index >= 0 {
		base += "[" + sim.RegName(o.Index) + "]"
	}
	return pfx + base
}

// CodeLabel implements sim.Operand.
func (o Operand) CodeLabel() (string, bool) { return o.Sym, o.Mode == MLabel }

// Program and Instr are the core's, over VAX operands.
type (
	Program = sim.Program[Operand]
	Instr   = sim.Instr[Operand]
)

// Assemble parses assembly text into an executable program.
func Assemble(src string) (*Program, error) { return isa.Assemble(src) }

func parseOperand(s string) (Operand, error) {
	o := Operand{Index: -1}
	if s == "" {
		return o, fmt.Errorf("empty operand")
	}
	if s[0] == '*' {
		inner, err := parseOperand(s[1:])
		if err != nil {
			return o, err
		}
		switch inner.Mode {
		case MRegDef, MDisp, MAbs, MAutoInc, MAutoDec:
			inner.Deferred = true
			return inner, nil
		}
		return o, fmt.Errorf("mode of %q cannot be deferred", s)
	}
	// Peel a trailing index register [rX].
	if strings.HasSuffix(s, "]") {
		lb := strings.LastIndexByte(s, '[')
		if lb < 0 {
			return o, fmt.Errorf("bad index in %q", s)
		}
		r, ok := sim.ParseReg(s[lb+1 : len(s)-1])
		if !ok {
			return o, fmt.Errorf("bad index register in %q", s)
		}
		o.Index = r
		s = s[:lb]
	}
	switch {
	case strings.HasPrefix(s, "$"):
		var err error
		o.Mode = MImm
		o.Imm, o.FImm, o.IsF, err = sim.ParseImm(s[1:])
		return o, err
	case strings.HasSuffix(s, ")+"):
		r, ok := sim.ParseReg(strings.TrimSuffix(strings.TrimPrefix(s, "("), ")+"))
		if !ok || !strings.HasPrefix(s, "(") {
			return o, fmt.Errorf("bad autoincrement %q", s)
		}
		o.Mode, o.Reg = MAutoInc, r
		return o, nil
	case strings.HasPrefix(s, "-(") && strings.HasSuffix(s, ")"):
		r, ok := sim.ParseReg(s[2 : len(s)-1])
		if !ok {
			return o, fmt.Errorf("bad autodecrement %q", s)
		}
		o.Mode, o.Reg = MAutoDec, r
		return o, nil
	case strings.HasSuffix(s, ")"):
		var hasDisp bool
		var err error
		o.Mode = MRegDef
		if o.Reg, o.Disp, hasDisp, err = sim.ParseDisp(s); hasDisp {
			o.Mode = MDisp
		}
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
