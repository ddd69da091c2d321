package asm

import (
	"strings"
	"testing"

	"cisim/internal/prog"
)

// dataImage flattens a program's data segments into one image from
// prog.DataBase; present marks the bytes some segment covers.
func dataImage(p *prog.Program) (img []byte, present []bool) {
	for _, s := range p.Data {
		if end := int(s.Addr-prog.DataBase) + len(s.Bytes); end > len(img) {
			img = append(img, make([]byte, end-len(img))...)
			present = append(present, make([]bool, end-len(present))...)
		}
		off := s.Addr - prog.DataBase
		copy(img[off:], s.Bytes)
		for i := range s.Bytes {
			present[off+uint64(i)] = true
		}
	}
	return img, present
}

// assertRoundTrip asserts that Format(p) reassembles to the same image.
func assertRoundTrip(t *testing.T, p *prog.Program, what string) {
	t.Helper()
	src := Format(p)
	q, err := Assemble(src)
	if err != nil {
		t.Fatalf("%s: reassembling formatted source: %v\n%s", what, err, src)
	}
	if len(q.Code) != len(p.Code) {
		t.Fatalf("%s: code length %d -> %d", what, len(p.Code), len(q.Code))
	}
	for i := range p.Code {
		if p.Code[i] != q.Code[i] {
			t.Fatalf("%s: instruction %d differs: %v -> %v", what, i, p.Code[i], q.Code[i])
		}
	}
	if p.Entry != q.Entry {
		t.Errorf("%s: entry %#x -> %#x", what, p.Entry, q.Entry)
	}
	pi, pok := dataImage(p)
	qi, qok := dataImage(q)
	for i, b := range pi {
		if !pok[i] {
			continue
		}
		if i >= len(qi) || !qok[i] || qi[i] != b {
			var qb byte
			if i < len(qi) {
				qb = qi[i]
			}
			t.Fatalf("%s: data byte at %#x: %#x -> %#x (present=%v)",
				what, prog.DataBase+uint64(i), b, qb, i < len(qok) && qok[i])
		}
	}
	for i, b := range qi {
		if (i >= len(pok) || !pok[i]) && b != 0 {
			t.Fatalf("%s: reassembly invented non-zero data byte at %#x", what, prog.DataBase+uint64(i))
		}
	}
	for pc, ts := range p.IndirectTargets {
		qt := q.IndirectTargets[pc]
		if len(qt) != len(ts) {
			t.Fatalf("%s: indirect targets at %#x: %v -> %v", what, pc, ts, qt)
		}
		for i := range ts {
			if ts[i] != qt[i] {
				t.Fatalf("%s: indirect target %d at %#x: %#x -> %#x", what, i, pc, ts[i], qt[i])
			}
		}
	}
	for name, addr := range p.Symbols {
		if qa, ok := q.Symbols[name]; !ok || qa != addr {
			t.Errorf("%s: symbol %s at %#x -> %#x (present=%v)", what, name, addr, qa, ok)
		}
	}
}

func TestFormatRoundTripBasics(t *testing.T) {
	p := MustAssemble(`
main:
	li r1, 10
	li r2, -32768
	la r3, buf
loop:
	ld r4, 0(r3)
	sb r4, 7(r3)
	addi r1, r1, -1
	blt r0, r1, loop
	call fn
	jmp done
fn:
	ret
done:
	halt
.data
buf:
	.word 0x1122334455667788, -1
tail:
	.space 5
	.byte 1, 2, 250
big:
	.space 4096
`)
	assertRoundTrip(t, p, "basics")
	// A long zero run renders as .space, not as 256 lines of .byte 0.
	if src := Format(p); !strings.Contains(src, "big:\n\t.space 4096\n") {
		t.Errorf("the 4096-byte buffer is not rendered as .space:\n%s", src)
	}
}

func TestFormatRoundTripJumpTable(t *testing.T) {
	p := MustAssemble(`
main:
	la r15, jumptab
	li r6, 1
	slli r6, r6, 3
	add r6, r15, r6
	ld r7, 0(r6)
	jalr ra, r7 [case_0, case_1]
	jr r7 [case_0, case_1]
case_0:
	addi r2, r0, 1
	ret
case_1:
	addi r2, r0, 2
	ret
.data
jumptab:
	.addr case_0, case_1
`)
	assertRoundTrip(t, p, "jumptable")
}

func TestFormatRoundTripIdempotent(t *testing.T) {
	p := MustAssemble(`
main:
	li r1, 3
x:
	addi r1, r1, -1
	bne r1, r0, x
	halt
`)
	once := Format(p)
	twice := Format(MustAssemble(once))
	if once != twice {
		t.Errorf("Format is not a fixed point:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
	}
}

func TestFormatSynthesizesMainForOffsetEntry(t *testing.T) {
	// A hand-constructed program whose entry is not the first instruction
	// and has no "main" label: Format must synthesize one so the entry
	// survives reassembly.
	p := MustAssemble(`
main:
	addi r1, r0, 1
	halt
`)
	p.Entry = p.CodeBase + 4
	delete(p.Symbols, "main")
	assertRoundTrip(t, p, "offset entry")
}
