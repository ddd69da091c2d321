// Package asm implements a two-pass assembler for the simulator ISA.
//
// Source syntax, one statement per line:
//
//	; comment               # comment also accepted
//	.text                   switch to code section (the default)
//	.data                   switch to data section
//	label:                  define a label at the current location
//	.word 1, 2, -3          8-byte little-endian words (data section)
//	.byte 1, 2, 0xff        bytes (data section)
//	.space 64               zero-filled bytes (data section)
//	.addr label, label2     8-byte words holding label addresses (jump tables)
//	add r1, r2, r3          machine instructions (see package isa)
//	beq r1, r2, label       branch targets are labels
//	jr r5 [case0, case1]    indirect jumps may annotate possible targets
//
// Register names: r0..r31, plus the aliases zero (r0), sp (r30), ra (r31).
//
// Pseudo-instructions:
//
//	li rd, imm              load a (≤32-bit signed) immediate
//	la rd, label            load a label address
//	mov rd, rs              add rd, rs, r0
//	call label              jal label
//	b label                 jmp label
//
// The first label in the text section (or the label "main", if defined)
// becomes the program entry point.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"cisim/internal/isa"
	"cisim/internal/prog"
)

// Error is an assembly error with source position. File is empty when the
// source came from Assemble rather than AssembleNamed.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
	}
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

type section int

const (
	secText section = iota
	secData
)

// item is an intermediate representation of one source statement after the
// first pass: either a (possibly pseudo-expanded) instruction or data bytes.
type stmt struct {
	line    int
	sec     section
	addr    uint64
	inst    isa.Inst // valid when sec == secText
	pending *fixup   // label reference to resolve in pass 2
	targets []string // indirect-jump target annotation (labels)
	data    []byte   // valid when sec == secData
	dataRef string   // label whose address becomes an 8-byte word
}

type fixupKind int

const (
	fixBranch fixupKind = iota // 16-bit word offset relative to instruction
	fixJump                    // absolute 26-bit word target
	fixLAHigh                  // lui: high 16 bits of label address
	fixLALow                   // ori: low 16 bits of label address
)

type fixup struct {
	kind  fixupKind
	label string
}

// Assemble translates source text into a linked program.
func Assemble(src string) (*prog.Program, error) {
	return AssembleNamed("", src)
}

// AssembleNamed is Assemble with a file name attached to diagnostics, so
// errors render as "file:line: message".
func AssembleNamed(file, src string) (*prog.Program, error) {
	a := &assembler{
		file:    file,
		labels:  make(map[string]uint64),
		textPos: prog.CodeBase,
		dataPos: prog.DataBase,
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	return a.pass2()
}

// MustAssemble is Assemble, panicking on error. For tests and built-in
// workloads, whose sources are compile-time constants.
func MustAssemble(src string) *prog.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

type assembler struct {
	file    string
	stmts   []stmt
	labels  map[string]uint64
	textPos uint64
	dataPos uint64
	sec     section
	lines   int // source line count
}

func (a *assembler) errf(line int, format string, args ...interface{}) error {
	return &Error{File: a.file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) pass1(src string) error {
	lines := strings.Split(src, "\n")
	a.lines = len(lines)
	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// A line may carry a label prefix and then a statement.
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			name := strings.TrimSpace(line[:i])
			if !isIdent(name) {
				return a.errf(lineNo+1, "invalid label %q", name)
			}
			if _, dup := a.labels[name]; dup {
				return a.errf(lineNo+1, "duplicate label %q", name)
			}
			a.labels[name] = a.pos()
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		if err := a.statement(lineNo+1, line); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) pos() uint64 {
	if a.sec == secText {
		return a.textPos
	}
	return a.dataPos
}

func (a *assembler) emitInst(line int, in isa.Inst, fix *fixup, targets []string) {
	a.stmts = append(a.stmts, stmt{
		line: line, sec: secText, addr: a.textPos,
		inst: in, pending: fix, targets: targets,
	})
	a.textPos += 4
}

func (a *assembler) emitData(line int, b []byte, ref string) {
	a.stmts = append(a.stmts, stmt{
		line: line, sec: secData, addr: a.dataPos, data: b, dataRef: ref,
	})
	if ref != "" {
		a.dataPos += 8
	} else {
		a.dataPos += uint64(len(b))
	}
}

func (a *assembler) statement(line int, s string) error {
	op, rest := splitOp(s)
	switch op {
	case ".text":
		a.sec = secText
		return nil
	case ".data":
		a.sec = secData
		return nil
	case ".word", ".byte", ".space", ".addr":
		if a.sec != secData {
			return a.errf(line, "%s outside .data section", op)
		}
		return a.dataDirective(line, op, rest)
	}
	if a.sec != secText {
		return a.errf(line, "instruction %q in .data section", op)
	}
	return a.instruction(line, op, rest)
}

func (a *assembler) dataDirective(line int, op, rest string) error {
	switch op {
	case ".space":
		n, err := parseInt(rest)
		if err != nil || n < 0 {
			return a.errf(line, "bad .space size %q", rest)
		}
		if uint64(n) > prog.StackTop-a.dataPos {
			return a.errf(line, ".space %d runs the data section into the stack at %#x", n, prog.StackTop)
		}
		a.emitData(line, make([]byte, n), "")
	case ".word":
		for _, f := range splitOperands(rest) {
			v, err := parseInt(f)
			if err != nil {
				return a.errf(line, "bad .word value %q", f)
			}
			b := make([]byte, 8)
			for i := 0; i < 8; i++ {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			a.emitData(line, b, "")
		}
	case ".byte":
		var b []byte
		for _, f := range splitOperands(rest) {
			v, err := parseInt(f)
			if err != nil || v < -128 || v > 255 {
				return a.errf(line, "bad .byte value %q", f)
			}
			b = append(b, byte(v))
		}
		a.emitData(line, b, "")
	case ".addr":
		for _, f := range splitOperands(rest) {
			if !isIdent(f) {
				return a.errf(line, "bad .addr label %q", f)
			}
			a.emitData(line, nil, f)
		}
	}
	if a.dataPos > prog.StackTop {
		return a.errf(line, "data section runs into the stack at %#x", prog.StackTop)
	}
	return nil
}

func (a *assembler) instruction(line int, op, rest string) error {
	// Indirect-target annotation: "jr r5 [a, b, c]".
	var targets []string
	if i := strings.Index(rest, "["); i >= 0 {
		j := strings.Index(rest, "]")
		if j < i {
			return a.errf(line, "unterminated target list")
		}
		for _, t := range splitOperands(rest[i+1 : j]) {
			if !isIdent(t) {
				return a.errf(line, "bad target label %q", t)
			}
			targets = append(targets, t)
		}
		rest = strings.TrimSpace(rest[:i] + rest[j+1:])
		rest = strings.TrimSuffix(rest, ",")
	}
	ops := splitOperands(rest)

	// Pseudo-instructions first.
	switch op {
	case "li":
		return a.pseudoLI(line, ops, targets)
	case "la":
		return a.pseudoLA(line, ops, targets)
	case "mov":
		if len(ops) != 2 {
			return a.errf(line, "mov needs 2 operands")
		}
		rd, err1 := parseReg(ops[0])
		rs, err2 := parseReg(ops[1])
		if err1 != nil || err2 != nil {
			return a.errf(line, "bad mov operands %v", ops)
		}
		a.emitInst(line, isa.Inst{Op: isa.ADD, Rd: rd, Rs1: rs, Rs2: isa.RZero}, nil, nil)
		return nil
	case "call":
		if len(ops) != 1 || !isIdent(ops[0]) {
			return a.errf(line, "call needs a label")
		}
		a.emitInst(line, isa.Inst{Op: isa.JAL}, &fixup{fixJump, ops[0]}, nil)
		return nil
	case "b":
		if len(ops) != 1 || !isIdent(ops[0]) {
			return a.errf(line, "b needs a label")
		}
		a.emitInst(line, isa.Inst{Op: isa.JMP}, &fixup{fixJump, ops[0]}, nil)
		return nil
	}

	o, ok := opByName(op)
	if !ok {
		return a.errf(line, "unknown instruction %q", op)
	}
	in := isa.Inst{Op: o}
	var fix *fixup

	switch isa.ClassOf(o) {
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv:
		switch o {
		case isa.NOP:
			if len(ops) != 0 {
				return a.errf(line, "nop takes no operands")
			}
		case isa.LUI:
			if len(ops) != 2 {
				return a.errf(line, "lui needs rd, imm")
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return a.errf(line, "%v", err)
			}
			imm, err := parseImm16(ops[1])
			if err != nil {
				return a.errf(line, "%v", err)
			}
			in.Rd, in.Imm = rd, imm
		case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI, isa.SLTI:
			if len(ops) != 3 {
				return a.errf(line, "%s needs rd, rs1, imm", op)
			}
			rd, err1 := parseReg(ops[0])
			rs1, err2 := parseReg(ops[1])
			imm, err3 := parseImm16(ops[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return a.errf(line, "bad operands for %s: %v", op, ops)
			}
			in.Rd, in.Rs1, in.Imm = rd, rs1, imm
		default: // register-register
			if len(ops) != 3 {
				return a.errf(line, "%s needs rd, rs1, rs2", op)
			}
			rd, err1 := parseReg(ops[0])
			rs1, err2 := parseReg(ops[1])
			rs2, err3 := parseReg(ops[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return a.errf(line, "bad operands for %s: %v", op, ops)
			}
			in.Rd, in.Rs1, in.Rs2 = rd, rs1, rs2
		}
	case isa.ClassLoad:
		if len(ops) != 2 {
			return a.errf(line, "%s needs rd, off(base)", op)
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return a.errf(line, "%v", err)
		}
		imm, base, err := parseMemOperand(ops[1])
		if err != nil {
			return a.errf(line, "%v", err)
		}
		in.Rd, in.Rs1, in.Imm = rd, base, imm
	case isa.ClassStore:
		if len(ops) != 2 {
			return a.errf(line, "%s needs rs2, off(base)", op)
		}
		rs2, err := parseReg(ops[0])
		if err != nil {
			return a.errf(line, "%v", err)
		}
		imm, base, err := parseMemOperand(ops[1])
		if err != nil {
			return a.errf(line, "%v", err)
		}
		in.Rs2, in.Rs1, in.Imm = rs2, base, imm
	case isa.ClassCondBr:
		if len(ops) != 3 {
			return a.errf(line, "%s needs rs1, rs2, label", op)
		}
		rs1, err1 := parseReg(ops[0])
		rs2, err2 := parseReg(ops[1])
		if err1 != nil || err2 != nil || !isIdent(ops[2]) {
			return a.errf(line, "bad operands for %s: %v", op, ops)
		}
		in.Rs1, in.Rs2 = rs1, rs2
		fix = &fixup{fixBranch, ops[2]}
	case isa.ClassJump, isa.ClassCall:
		if len(ops) != 1 || !isIdent(ops[0]) {
			return a.errf(line, "%s needs a label", op)
		}
		fix = &fixup{fixJump, ops[0]}
	case isa.ClassIndJump:
		if len(ops) != 1 {
			return a.errf(line, "jr needs one register")
		}
		rs1, err := parseReg(ops[0])
		if err != nil {
			return a.errf(line, "%v", err)
		}
		in.Rs1 = rs1
	case isa.ClassIndCall:
		if len(ops) != 2 {
			return a.errf(line, "jalr needs rd, rs1")
		}
		rd, err1 := parseReg(ops[0])
		rs1, err2 := parseReg(ops[1])
		if err1 != nil || err2 != nil {
			return a.errf(line, "bad operands for jalr: %v", ops)
		}
		in.Rd, in.Rs1 = rd, rs1
	case isa.ClassReturn, isa.ClassHalt:
		if len(ops) != 0 {
			return a.errf(line, "%s takes no operands", op)
		}
	}
	a.emitInst(line, in, fix, targets)
	return nil
}

func (a *assembler) pseudoLI(line int, ops []string, targets []string) error {
	if len(ops) != 2 {
		return a.errf(line, "li needs rd, imm")
	}
	rd, err := parseReg(ops[0])
	if err != nil {
		return a.errf(line, "%v", err)
	}
	v, err := parseInt(ops[1])
	if err != nil {
		return a.errf(line, "bad immediate %q", ops[1])
	}
	if v < -(1<<31) || v >= 1<<31 {
		return a.errf(line, "li immediate %d out of 32-bit range", v)
	}
	if v >= -(1<<15) && v < 1<<15 {
		a.emitInst(line, isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: isa.RZero, Imm: int32(v)}, nil, targets)
		return nil
	}
	hi := int32(v >> 16)
	lo := int32(v & 0xffff)
	if lo >= 1<<15 && hi == 1<<15-1 {
		// The carry-compensated LUI would need imm 32768, which does not
		// encode. Build 2^31 by shifting, then add the (negative) low
		// half: rd = (1<<31) + (lo - 1<<16).
		a.emitInst(line, isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: isa.RZero, Imm: 1}, nil, nil)
		a.emitInst(line, isa.Inst{Op: isa.SLLI, Rd: rd, Rs1: rd, Imm: 31}, nil, nil)
		a.emitInst(line, isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: lo - (1 << 16)}, nil, targets)
		return nil
	}
	a.emitInst(line, isa.Inst{Op: isa.LUI, Rd: rd, Imm: hi}, nil, nil)
	if lo != 0 {
		// ORI's immediate is sign-extended, so only use it for the low
		// half when bit 15 is clear; otherwise use ADDI-compensated LUI.
		if lo < 1<<15 {
			a.emitInst(line, isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rd, Imm: lo}, nil, targets)
		} else {
			// lui loaded hi<<16; add (lo - 1<<16) and bump hi by 1.
			a.stmts[len(a.stmts)-1].inst.Imm = hi + 1
			a.emitInst(line, isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: lo - (1 << 16)}, nil, targets)
		}
	}
	return nil
}

func (a *assembler) pseudoLA(line int, ops []string, targets []string) error {
	if len(ops) != 2 {
		return a.errf(line, "la needs rd, label")
	}
	rd, err := parseReg(ops[0])
	if err != nil {
		return a.errf(line, "%v", err)
	}
	if !isIdent(ops[1]) {
		return a.errf(line, "bad label %q", ops[1])
	}
	// Always two instructions so pass-1 sizing is stable.
	a.emitInst(line, isa.Inst{Op: isa.LUI, Rd: rd}, &fixup{fixLAHigh, ops[1]}, nil)
	a.emitInst(line, isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rd}, &fixup{fixLALow, ops[1]}, targets)
	return nil
}

func (a *assembler) pass2() (*prog.Program, error) {
	p := &prog.Program{
		CodeBase:        prog.CodeBase,
		Symbols:         a.labels,
		IndirectTargets: make(map[uint64][]uint64),
	}
	nInst := int((a.textPos - prog.CodeBase) / 4)
	p.Code = make([]isa.Inst, nInst)
	p.Lines = make([]int32, nInst)

	for _, st := range a.stmts {
		switch st.sec {
		case secData:
			b := st.data
			if st.dataRef != "" {
				addr, ok := a.labels[st.dataRef]
				if !ok {
					return nil, a.errf(st.line, "undefined label %q", st.dataRef)
				}
				b = make([]byte, 8)
				for i := 0; i < 8; i++ {
					b[i] = byte(addr >> (8 * i))
				}
			}
			if len(b) > 0 {
				p.Data = append(p.Data, prog.DataSeg{Addr: st.addr, Bytes: b})
			}
		case secText:
			in := st.inst
			if st.pending != nil {
				addr, ok := a.labels[st.pending.label]
				if !ok {
					return nil, a.errf(st.line, "undefined label %q", st.pending.label)
				}
				switch st.pending.kind {
				case fixBranch:
					off := (int64(addr) - int64(st.addr)) / 4
					if off < -(1<<15) || off >= 1<<15 {
						return nil, a.errf(st.line, "branch to %q out of range", st.pending.label)
					}
					in.Imm = int32(off)
				case fixJump:
					in.Target = addr
				case fixLAHigh:
					if addr >= 1<<31 {
						return nil, a.errf(st.line, "label %q address too large for la", st.pending.label)
					}
					in.Imm = int32(addr >> 16)
					if addr&0x8000 != 0 {
						// The low half will be added with a negative
						// ADDI immediate; compensate the high half.
						in.Imm++
					}
				case fixLALow:
					lo := int32(addr & 0xffff)
					if lo >= 1<<15 {
						in.Op = isa.ADDI
						in.Imm = lo - (1 << 16)
					} else {
						in.Imm = lo
					}
				}
			}
			if _, err := isa.Encode(in); err != nil {
				return nil, a.errf(st.line, "unencodable instruction: %v", err)
			}
			p.Code[(st.addr-prog.CodeBase)/4] = in
			p.Lines[(st.addr-prog.CodeBase)/4] = int32(st.line)
			if len(st.targets) > 0 {
				for _, t := range st.targets {
					addr, ok := a.labels[t]
					if !ok {
						return nil, a.errf(st.line, "undefined target label %q", t)
					}
					p.IndirectTargets[st.addr] = append(p.IndirectTargets[st.addr], addr)
				}
			}
		}
	}

	if main, ok := a.labels["main"]; ok {
		p.Entry = main
	} else {
		p.Entry = prog.CodeBase
	}
	if nInst == 0 {
		// Reported at the end of the input, where code was still missing.
		return nil, a.errf(a.lines, "program has no instructions")
	}
	return p, nil
}

// --- lexical helpers ---

func splitOp(s string) (op, rest string) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return strings.ToLower(s), ""
	}
	return strings.ToLower(s[:i]), strings.TrimSpace(s[i+1:])
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

var regAliases = map[string]isa.Reg{
	"zero": isa.RZero,
	"sp":   isa.RSP,
	"ra":   isa.RLink,
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if r, ok := regAliases[s]; ok {
		return r, nil
	}
	if len(s) >= 2 && s[0] == 'r' {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return isa.Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	return strconv.ParseInt(s, 0, 64)
}

func parseImm16(s string) (int32, error) {
	v, err := parseInt(s)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if v < -(1<<15) || v >= 1<<15 {
		return 0, fmt.Errorf("immediate %d out of 16-bit range", v)
	}
	return int32(v), nil
}

// parseMemOperand parses "off(base)" or "(base)".
func parseMemOperand(s string) (int32, isa.Reg, error) {
	s = strings.TrimSpace(s)
	i := strings.Index(s, "(")
	if i < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	var imm int32
	if off := strings.TrimSpace(s[:i]); off != "" {
		v, err := parseImm16(off)
		if err != nil {
			return 0, 0, err
		}
		imm = v
	}
	base, err := parseReg(s[i+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return imm, base, nil
}

var nameToOp = func() map[string]isa.Op {
	m := make(map[string]isa.Op)
	for op := isa.NOP; ; op++ {
		if !op.Valid() {
			break
		}
		m[op.String()] = op
	}
	return m
}()

func opByName(name string) (isa.Op, bool) {
	op, ok := nameToOp[name]
	return op, ok
}
