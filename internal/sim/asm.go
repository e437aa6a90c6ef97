// Package sim is the instruction-set-independent core of the bundled
// simulators: the assembler front end (comments, labels, data directives
// and layout), the program and memory model, the calls/ret frame
// protocol, the step loop with its fault reporting, and the dynamic
// profile. An instruction set plugs in through an ISA value — its operand
// parser, mnemonic handler table, library builtins and addressing-mode
// names — and its register word, a type parameter (32 bits on the VAX,
// 64 on the RISC subset). internal/vaxsim and internal/riscsim are the
// two plug-ins; see DESIGN.md §13.
package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Operand is an instruction operand as an ISA's parser produces it.
type Operand interface {
	fmt.Stringer
	// CodeLabel returns the symbol of a code-label operand (L7 as a
	// branch or call target); the assembler checks that it resolves.
	CodeLabel() (string, bool)
}

// Instr is one assembled instruction.
type Instr[O Operand] struct {
	Mn   string
	Ops  []O
	Line int
}

func (i Instr[O]) String() string {
	parts := make([]string, len(i.Ops))
	for j, o := range i.Ops {
		parts[j] = o.String()
	}
	return i.Mn + "\t" + strings.Join(parts, ",")
}

// CheckArity errors unless the instruction has exactly n operands.
func (i *Instr[O]) CheckArity(n int) error {
	if len(i.Ops) != n {
		return fmt.Errorf("want %d operands, have %d", n, len(i.Ops))
	}
	return nil
}

// Program is an assembled unit ready to execute.
type Program[O Operand] struct {
	Instrs  []Instr[O]
	Labels  map[string]int    // code label -> instruction index
	Globals map[string]uint32 // data symbol -> address
	DataEnd uint32            // first address beyond static data
	init    []dataInit
}

type dataInit struct {
	addr  uint32
	bytes []byte
}

// DataBase is where static data is placed in simulated memory; both
// machines share the layout, so the differential harness reads globals of
// either target identically.
const DataBase = 0x1000

// Assemble parses assembly text into an executable program. Static data
// must fit in the DefaultMemory-byte memory: a directive that would carry
// it past the end is an error naming its line.
func (isa *ISA[W, O, M]) Assemble(src string) (*Program[O], error) {
	a := &assembler[O]{
		p:      &Program[O]{Labels: make(map[string]int), Globals: make(map[string]uint32)},
		cursor: DataBase,
	}
	p := a.p
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		for line != "" {
			// Peel off label definitions.
			colon := strings.IndexByte(line, ':')
			if colon < 0 || !IsSymbol(line[:colon]) {
				break
			}
			name := line[:colon]
			if a.inData {
				p.Globals[name] = a.cursor
			} else {
				p.Labels[name] = len(p.Instrs)
			}
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if err := a.directive(line); err != nil {
				return nil, fmt.Errorf("%s: line %d: %v", isa.Name, lineNo+1, err)
			}
			continue
		}
		instr, err := isa.parseInstr(line, lineNo+1)
		if err != nil {
			return nil, fmt.Errorf("%s: line %d: %v", isa.Name, lineNo+1, err)
		}
		p.Instrs = append(p.Instrs, instr)
	}
	p.DataEnd = a.cursor
	// Verify that every code target resolves.
	for _, in := range p.Instrs {
		for _, o := range in.Ops {
			sym, ok := o.CodeLabel()
			if !ok {
				continue
			}
			if _, ok := p.Labels[sym]; !ok && isa.Builtins[sym] == nil {
				if _, isData := p.Globals[sym]; !isData {
					return nil, fmt.Errorf("%s: line %d: undefined target %q", isa.Name, in.Line, sym)
				}
			}
		}
	}
	return p, nil
}

func (isa *ISA[W, O, M]) parseInstr(line string, lineNo int) (Instr[O], error) {
	mn := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mn, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	in := Instr[O]{Mn: mn, Line: lineNo}
	if _, ok := isa.Exec[mn]; !ok {
		return in, fmt.Errorf("unknown instruction %q", mn)
	}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			op, err := isa.Parse(strings.TrimSpace(part))
			if err != nil {
				return in, err
			}
			in.Ops = append(in.Ops, op)
		}
	}
	return in, nil
}

// assembler is the state of one Assemble pass: the program so far and the
// static-data cursor, which never passes DefaultMemory.
type assembler[O Operand] struct {
	p      *Program[O]
	cursor uint32
	inData bool
}

// reserve claims n bytes of static data at the cursor and returns their
// address.
func (a *assembler[O]) reserve(n int) (uint32, error) {
	if n > DefaultMemory-int(a.cursor) {
		return 0, fmt.Errorf("static data passes the end of the %d-byte simulated memory", DefaultMemory)
	}
	at := a.cursor
	a.cursor += uint32(n)
	return at, nil
}

func (a *assembler[O]) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".text":
		a.inData = false
	case ".data":
		a.inData = true
	case ".globl", ".word":
		// .globl is advisory; .word after a function label is the VAX
		// entry register save mask, which the frame protocol handles
		// implicitly (the RISC emitter writes none).
	case ".align":
		if len(fields) < 2 {
			return fmt.Errorf(".align needs an argument")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 || n > 12 {
			return fmt.Errorf("bad .align %q", fields[1])
		}
		size := uint32(1) << n
		_, err = a.reserve(int((size - a.cursor%size) % size))
		return err
	case ".comm":
		parts := strings.Split(strings.Join(fields[1:], ""), ",")
		if len(parts) != 2 {
			return fmt.Errorf("bad .comm %q", line)
		}
		size, err := strconv.Atoi(parts[1])
		if err != nil || size <= 0 {
			return fmt.Errorf("bad .comm size %q", parts[1])
		}
		if _, err := a.reserve(int((4 - a.cursor%4) % 4)); err != nil {
			return err
		}
		at, err := a.reserve(size)
		a.p.Globals[parts[0]] = at
		return err
	case ".space":
		if len(fields) < 2 {
			return fmt.Errorf(".space needs a size")
		}
		size, err := strconv.Atoi(fields[1])
		if err != nil || size < 0 {
			return fmt.Errorf("bad .space %q", fields[1])
		}
		_, err = a.reserve(size)
		return err
	case ".long", ".byte":
		elem := 4
		if fields[0] == ".byte" {
			elem = 1
		}
		for _, arg := range strings.Split(strings.Join(fields[1:], ""), ",") {
			v, err := strconv.ParseInt(arg, 0, 64)
			if err != nil {
				return fmt.Errorf("bad %s value %q", fields[0], arg)
			}
			b := make([]byte, elem)
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			at, err := a.reserve(elem)
			if err != nil {
				return err
			}
			a.p.init = append(a.p.init, dataInit{addr: at, bytes: b})
		}
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}

// IsSymbol reports whether s is a well-formed label or symbol name.
func IsSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || c == '.' || c == '$' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// Register numbers of the dedicated registers, shared by both machines.
const (
	RegAP = 12
	RegFP = 13
	RegSP = 14
	RegPC = 15
)

// RegName is the assembler spelling of register r.
func RegName(r int) string {
	switch r {
	case RegAP:
		return "ap"
	case RegFP:
		return "fp"
	case RegSP:
		return "sp"
	case RegPC:
		return "pc"
	}
	return fmt.Sprintf("r%d", r)
}

// ParseReg parses a register name: r0..r15, ap, fp, sp or pc.
func ParseReg(s string) (int, bool) {
	switch s {
	case "ap":
		return RegAP, true
	case "fp":
		return RegFP, true
	case "sp":
		return RegSP, true
	case "pc":
		return RegPC, true
	}
	if strings.HasPrefix(s, "r") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n <= 15 {
			return n, true
		}
	}
	return 0, false
}

// ParseImm parses the body of a $ immediate: an integer, or failing
// that a floating constant (isF).
func ParseImm(body string) (v int64, f float64, isF bool, err error) {
	if v, err := strconv.ParseInt(body, 0, 64); err == nil {
		return v, 0, false, nil
	}
	if f, err := strconv.ParseFloat(body, 64); err == nil {
		return 0, f, true, nil
	}
	return 0, 0, false, fmt.Errorf("bad immediate %q", "$"+body)
}

// ParseDisp parses a register-based memory operand, (rN) or d(rN);
// hasDisp reports whether a displacement was written.
func ParseDisp(s string) (reg int, disp int32, hasDisp bool, err error) {
	lp := strings.IndexByte(s, '(')
	if lp < 0 {
		return 0, 0, false, fmt.Errorf("bad operand %q", s)
	}
	reg, ok := ParseReg(s[lp+1 : len(s)-1])
	if !ok {
		return 0, 0, false, fmt.Errorf("bad base register in %q", s)
	}
	if lp == 0 {
		return reg, 0, false, nil
	}
	d, err := strconv.ParseInt(s[:lp], 0, 32)
	if err != nil {
		return 0, 0, false, fmt.Errorf("bad displacement in %q", s)
	}
	return reg, int32(d), true, nil
}

// ParseSymbol parses a symbolic operand, _name or _name+disp or L7. A
// bare L-label is a code target (label); anything else is an absolute
// data reference.
func ParseSymbol(s string) (sym string, disp int32, label bool, err error) {
	if !strings.HasPrefix(s, "_") && !(strings.HasPrefix(s, "L") && IsSymbol(s)) {
		return "", 0, false, fmt.Errorf("bad operand %q", s)
	}
	sym = s
	if i := strings.IndexByte(s, '+'); i > 0 {
		d, err := strconv.ParseInt(s[i+1:], 0, 32)
		if err != nil {
			return "", 0, false, fmt.Errorf("bad symbol offset %q", s)
		}
		sym, disp = s[:i], int32(d)
	}
	if !IsSymbol(sym) {
		return "", 0, false, fmt.Errorf("bad symbol %q", s)
	}
	return sym, disp, strings.HasPrefix(sym, "L") && disp == 0, nil
}
