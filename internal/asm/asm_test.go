package asm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cisim/internal/isa"
	"cisim/internal/prog"
)

// mustSym resolves a label defined in the test program, failing the test
// if the assembler did not record it.
func mustSym(t *testing.T, p *prog.Program, name string) uint64 {
	t.Helper()
	a, ok := p.Symbol(name)
	if !ok {
		t.Fatalf("undefined symbol %q", name)
	}
	return a
}

func TestBasicProgram(t *testing.T) {
	p, err := Assemble(`
		; a tiny counting loop
		main:
			li   r1, 3
			li   r2, 0
		loop:
			addi r2, r2, 1      # body
			addi r1, r1, -1
			bne  r1, r0, loop
			halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != prog.CodeBase {
		t.Errorf("entry = %#x, want %#x", p.Entry, prog.CodeBase)
	}
	if len(p.Code) != 6 {
		t.Fatalf("code length = %d, want 6", len(p.Code))
	}
	// The branch at index 4 targets "loop" at index 2: offset -2 words.
	br := p.Code[4]
	if br.Op != isa.BNE || br.Imm != -2 {
		t.Errorf("branch = %v, want bne with offset -2", br)
	}
	if _, ok := p.Symbol("loop"); !ok {
		t.Error("symbol loop missing")
	}
}

func TestLabelOnOwnLine(t *testing.T) {
	p := MustAssemble(`
		main:
		start:
			nop
		end: halt
	`)
	if mustSym(t, p, "main") != mustSym(t, p, "start") {
		t.Error("stacked labels differ")
	}
	if mustSym(t, p, "end") != mustSym(t, p, "main")+4 {
		t.Error("end label misplaced")
	}
}

func TestDataSection(t *testing.T) {
	p := MustAssemble(`
		.data
		table:
			.word 10, -20, 0x30
		bytes:
			.byte 1, 2, 255
		gap:
			.space 16
		ptrs:
			.addr main, table
		.text
		main:
			la r1, table
			ld r2, 0(r1)
			halt
	`)
	tbl := mustSym(t, p, "table")
	if tbl != prog.DataBase {
		t.Errorf("table at %#x, want %#x", tbl, prog.DataBase)
	}
	if mustSym(t, p, "bytes") != tbl+24 {
		t.Errorf("bytes at %#x", mustSym(t, p, "bytes"))
	}
	if mustSym(t, p, "gap") != tbl+27 {
		t.Errorf("gap at %#x", mustSym(t, p, "gap"))
	}
	if mustSym(t, p, "ptrs") != tbl+27+16 {
		t.Errorf("ptrs at %#x", mustSym(t, p, "ptrs"))
	}
	// Find the .addr words in the data image.
	var ptrBytes []byte
	for _, seg := range p.Data {
		if seg.Addr == mustSym(t, p, "ptrs") {
			ptrBytes = seg.Bytes
		}
	}
	if len(ptrBytes) != 8 {
		t.Fatalf("ptrs segment missing or wrong size: %d", len(ptrBytes))
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(ptrBytes[i]) << (8 * i)
	}
	if v != mustSym(t, p, "main") {
		t.Errorf(".addr main = %#x, want %#x", v, mustSym(t, p, "main"))
	}
}

func TestPseudoLI(t *testing.T) {
	cases := []struct {
		val  int64
		want int // instruction count
	}{
		{0, 1}, {100, 1}, {-100, 1}, {32767, 1}, {-32768, 1},
		{32768, 2}, {0x12340000, 1}, {0x12345678, 2}, {0x1234ffff, 2},
		{-40000, 2}, {0x7fff8000, 3}, {0x7fffffff, 3}, {-0x80000000, 1},
	}
	for _, c := range cases {
		p := MustAssemble(fmt.Sprintf("main:\n li r1, %d\n halt", c.val))
		if len(p.Code) != c.want+1 {
			t.Errorf("li %d emitted %d instructions, want %d", c.val, len(p.Code)-1, c.want)
		}
	}
}

func TestPseudoLIOutOfRange(t *testing.T) {
	if _, err := Assemble("main:\n li r1, 0x100000000\n halt"); err == nil {
		t.Error("li with 33-bit value should fail")
	}
}

func TestIndirectTargets(t *testing.T) {
	p := MustAssemble(`
		main:
			la r5, case1
			jr r5 [case0, case1]
		case0:
			halt
		case1:
			halt
	`)
	// The jr is the third instruction (la expands to two).
	jrPC := prog.CodeBase + 8
	tgts := p.IndirectTargets[jrPC]
	if len(tgts) != 2 {
		t.Fatalf("indirect targets = %v", tgts)
	}
	if tgts[0] != mustSym(t, p, "case0") || tgts[1] != mustSym(t, p, "case1") {
		t.Errorf("targets = %#x, want case0/case1", tgts)
	}
}

func TestMemOperands(t *testing.T) {
	p := MustAssemble(`
		main:
			ld r1, 8(sp)
			ld r2, (r4)
			st r1, -16(sp)
			sb r1, 3(r2)
			halt
	`)
	if in := p.Code[0]; in.Op != isa.LD || in.Rd != 1 || in.Rs1 != isa.RSP || in.Imm != 8 {
		t.Errorf("ld = %v", in)
	}
	if in := p.Code[1]; in.Imm != 0 || in.Rs1 != 4 {
		t.Errorf("ld no-offset = %v", in)
	}
	if in := p.Code[2]; in.Op != isa.ST || in.Rs2 != 1 || in.Imm != -16 {
		t.Errorf("st = %v", in)
	}
}

func TestRegisterAliases(t *testing.T) {
	p := MustAssemble(`
		main:
			mov r1, zero
			add r2, sp, ra
			halt
	`)
	if in := p.Code[0]; in.Rs1 != isa.RZero {
		t.Errorf("zero alias = %v", in)
	}
	if in := p.Code[1]; in.Rs1 != isa.RSP || in.Rs2 != isa.RLink {
		t.Errorf("sp/ra aliases = %v", in)
	}
}

func TestCallAndRet(t *testing.T) {
	p := MustAssemble(`
		main:
			call fn
			halt
		fn:
			ret
	`)
	if in := p.Code[0]; in.Op != isa.JAL || in.Target != mustSym(t, p, "fn") {
		t.Errorf("call = %v", in)
	}
	if in := p.Code[2]; in.Op != isa.RET {
		t.Errorf("ret = %v", in)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"main:\n frobnicate r1\n halt", "unknown instruction"},
		{"main:\n add r1, r2\n halt", "needs rd, rs1, rs2"},
		{"main:\n addi r1, r2, 99999\n halt", "bad operands"},
		{"main:\n beq r1, r2, nowhere\n halt", "undefined label"},
		{"main:\n jmp nowhere\n halt", "undefined label"},
		{"main:\n ld r1, r2\n halt", "bad memory operand"},
		{"main:\n add r1, r2, r99\n halt", "bad operands"},
		{"dup:\ndup:\n halt", "duplicate label"},
		{"main:\n .word 5\n halt", "outside .data"},
		{".data\n x: add r1, r2, r3\n", "in .data section"},
		{"main:\n jr r5 [nowhere]\n halt", "undefined target"},
		{"main:\n jr r5 [bad\n halt", "unterminated"},
		{"", "no instructions"},
		{"1bad:\n halt", "invalid label"},
		{"main:\n halt extra", "takes no operands"},
		{".data\n .byte 300\n", "bad .byte"},
		{".data\n .space -1\n", "bad .space"},
		{".data\n .space 99999999999\n", "into the stack"},
		{".data\n .space 0x6fefff\n .word 1\n", "into the stack"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("Assemble(%q) should fail with %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Assemble(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble on bad source should panic")
		}
	}()
	MustAssemble("main:\n bogus\n")
}

// Property: every assembled instruction is encodable, and disassembling the
// program never panics.
func TestAssembledProgramsEncodable(t *testing.T) {
	p := MustAssemble(`
		.data
		buf: .space 128
		.text
		main:
			la r10, buf
			li r1, 16
		loop:
			st r1, 0(r10)
			ld r2, 0(r10)
			mul r3, r2, r2
			div r4, r3, r1
			addi r10, r10, 8
			addi r1, r1, -1
			bne r1, r0, loop
			call fn
			halt
		fn:
			slt r5, r1, r2
			ret
	`)
	for i, in := range p.Code {
		if _, err := isa.Encode(in); err != nil {
			t.Errorf("code[%d] = %v not encodable: %v", i, in, err)
		}
		pc := p.CodeBase + uint64(4*i)
		if s := p.Disassemble(pc); s == "" {
			t.Errorf("empty disassembly at %#x", pc)
		}
	}
}

// Property: for random in-range values, li followed by halt produces a
// program that loads exactly that value (checked by decoding the emitted
// instructions' semantics structurally).
func TestPseudoLIValueProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		v := int64(int32(r.Uint32())) // any 32-bit signed value
		p, err := Assemble(fmt.Sprintf("main:\n li r7, %d\n halt", v))
		if err != nil {
			return false
		}
		// Interpret the emitted instructions.
		var reg int64
		for _, in := range p.Code {
			switch in.Op {
			case isa.ADDI:
				if in.Rs1 == isa.RZero {
					reg = int64(in.Imm)
				} else {
					reg += int64(in.Imm)
				}
			case isa.LUI:
				reg = int64(in.Imm) << 16
			case isa.ORI:
				reg |= int64(in.Imm)
			case isa.SLLI:
				reg <<= uint(in.Imm)
			case isa.HALT:
			default:
				return false
			}
		}
		return reg == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMoreErrorPaths(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"main:\n nop extra\n", "takes no operands"},
		{"main:\n lui r1\n", "lui needs"},
		{"main:\n lui rx, 5\n", "bad register"},
		{"main:\n lui r1, 99999\n", "out of 16-bit range"},
		{"main:\n ld r1\n", "needs rd"},
		{"main:\n ld rx, 0(r1)\n", "bad register"},
		{"main:\n ld r1, 99999(r2)\n", "out of 16-bit range"},
		{"main:\n st r1\n", "needs rs2"},
		{"main:\n st rx, 0(r1)\n", "bad register"},
		{"main:\n beq r1, r2\n", "needs rs1, rs2, label"},
		{"main:\n beq rx, r2, main\n", "bad operands"},
		{"main:\n jmp\n", "needs a label"},
		{"main:\n jr\n", "needs one register"},
		{"main:\n jr rx\n", "bad register"},
		{"main:\n jalr r1\n", "needs rd, rs1"},
		{"main:\n jalr rx, ry\n", "bad operands"},
		{"main:\n ret r1\n", "takes no operands"},
		{"main:\n mov r1\n", "mov needs 2 operands"},
		{"main:\n mov rx, ry\n", "bad mov operands"},
		{"main:\n call 123\n", "call needs a label"},
		{"main:\n b 123\n", "b needs a label"},
		{"main:\n li r1\n", "li needs"},
		{"main:\n li rx, 5\n", "bad register"},
		{"main:\n li r1, zork\n", "bad immediate"},
		{"main:\n la r1\n", "la needs"},
		{"main:\n la rx, main\n", "bad register"},
		{"main:\n la r1, 99\n", "bad label"},
		{".data\n .addr 99\n", "bad .addr"},
		{".data\n .word zork\n", "bad .word"},
		{"main:\n addi r1, r2, zork\n", "bad operands"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src + " halt\n")
		if err == nil {
			t.Errorf("Assemble(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Assemble(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestBranchOutOfRange(t *testing.T) {
	// A branch whose target is beyond the 16-bit word offset.
	var b strings.Builder
	b.WriteString("main:\n beq r1, r2, far\n")
	for i := 0; i < 33000; i++ {
		b.WriteString(" nop\n")
	}
	b.WriteString("far:\n halt\n")
	if _, err := Assemble(b.String()); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("distant branch should fail with range error, got %v", err)
	}
}

func TestLabelIdentRules(t *testing.T) {
	if _, err := Assemble(".L1:\n halt\n"); err != nil {
		t.Errorf("dot-prefixed label should work: %v", err)
	}
	if _, err := Assemble("with-dash:\n halt\n"); err == nil {
		t.Error("dash in label should fail")
	}
	if _, err := Assemble("ok_1:\n halt\n"); err != nil {
		t.Errorf("underscore+digit label should work: %v", err)
	}
}

func TestLAHighBitAddress(t *testing.T) {
	// A data label whose low 16 bits have bit 15 set: la must use the
	// carry-compensated form.
	p := MustAssemble(`
		.data
		pad: .space 0x8000
		tgt: .word 7
		.text
		main:
			la r1, tgt
			ld r2, 0(r1)
			halt
	`)
	if mustSym(t, p, "tgt") != prog.DataBase+0x8000 {
		t.Fatalf("tgt at %#x", mustSym(t, p, "tgt"))
	}
	// Interpret the la pair.
	in0, in1 := p.Code[0], p.Code[1]
	if in0.Op != isa.LUI {
		t.Fatalf("first la instruction = %v", in0)
	}
	got := uint64(int64(in0.Imm) << 16)
	switch in1.Op {
	case isa.ORI:
		got |= uint64(int64(in1.Imm))
	case isa.ADDI:
		got += uint64(int64(in1.Imm))
	default:
		t.Fatalf("second la instruction = %v", in1)
	}
	if got != mustSym(t, p, "tgt") {
		t.Errorf("la materializes %#x, want %#x", got, mustSym(t, p, "tgt"))
	}
}
