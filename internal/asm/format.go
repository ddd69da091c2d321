package asm

import (
	"fmt"
	"sort"
	"strings"

	"cisim/internal/isa"
	"cisim/internal/prog"
)

// Format renders a program image back to assembly source. Reassembling
// the output reproduces the image: identical code, entry point, data
// bytes, and indirect-target annotations; the original symbols survive,
// plus synthesized `L_<addr>`/`D_<addr>` labels for referenced addresses
// that had no name (possible only for hand-constructed programs — the
// assembler itself always works through labels).
func Format(p *prog.Program) string {
	f := &formatter{p: p, labels: map[uint64][]string{}}
	f.collectLabels()
	var b strings.Builder
	f.code(&b)
	f.data(&b)
	return b.String()
}

// minSpaceRun is the shortest run of zero data bytes Format renders as
// .space rather than as .byte values.
const minSpaceRun = 16

type formatter struct {
	p      *prog.Program
	labels map[uint64][]string // addr -> sorted label names
}

func (f *formatter) collectLabels() {
	//lint:ignore detrange per-address name lists are sorted just below
	for name, addr := range f.p.Symbols {
		f.labels[addr] = append(f.labels[addr], name)
	}
	for addr := range f.labels {
		sort.Strings(f.labels[addr])
	}
	// The assembler derives the entry point from "main"; guarantee one.
	if !f.hasLabel(f.p.Entry, "main") && f.p.Entry != prog.CodeBase {
		f.labels[f.p.Entry] = append([]string{"main"}, f.labels[f.p.Entry]...)
	}
	// Synthesize names for referenced but unnamed addresses.
	need := func(addr uint64, prefix string) {
		if len(f.labels[addr]) == 0 {
			f.labels[addr] = []string{fmt.Sprintf("%s_%x", prefix, addr)}
		}
	}
	for i, in := range f.p.Code {
		pc := f.p.CodeBase + 4*uint64(i)
		switch isa.ClassOf(in.Op) {
		case isa.ClassCondBr, isa.ClassJump, isa.ClassCall:
			need(in.BranchTarget(pc), "L")
		}
	}
	for _, targets := range f.p.IndirectTargets {
		for _, t := range targets {
			need(t, "L")
		}
	}
}

func (f *formatter) hasLabel(addr uint64, name string) bool {
	for _, l := range f.labels[addr] {
		if l == name {
			return true
		}
	}
	return false
}

// ref returns the first label at addr (collectLabels guarantees one for
// every referenced address).
func (f *formatter) ref(addr uint64) string {
	if ls := f.labels[addr]; len(ls) > 0 {
		return ls[0]
	}
	return fmt.Sprintf("L_%x", addr)
}

func (f *formatter) code(b *strings.Builder) {
	for i, in := range f.p.Code {
		pc := f.p.CodeBase + 4*uint64(i)
		for _, l := range f.labels[pc] {
			fmt.Fprintf(b, "%s:\n", l)
		}
		fmt.Fprintf(b, "\t%s\n", f.inst(pc, in))
	}
	// A label after the last instruction (a bound, or a branch target
	// past the end) still names the end of the text section.
	if end := f.p.CodeBase + 4*uint64(len(f.p.Code)); end < prog.DataBase {
		for _, l := range f.labels[end] {
			fmt.Fprintf(b, "%s:\n", l)
		}
	}
}

// inst renders one instruction in assembler syntax, using labels for
// direct control flow and re-emitting indirect-target annotations.
func (f *formatter) inst(pc uint64, in isa.Inst) string {
	switch isa.ClassOf(in.Op) {
	case isa.ClassCondBr:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rs1, in.Rs2, f.ref(in.BranchTarget(pc)))
	case isa.ClassJump:
		return fmt.Sprintf("jmp %s", f.ref(in.Target))
	case isa.ClassCall:
		return fmt.Sprintf("jal %s", f.ref(in.Target))
	case isa.ClassIndJump:
		return fmt.Sprintf("jr %s%s", in.Rs1, f.targets(pc))
	case isa.ClassIndCall:
		return fmt.Sprintf("jalr %s, %s%s", in.Rd, in.Rs1, f.targets(pc))
	default:
		return in.String()
	}
}

func (f *formatter) targets(pc uint64) string {
	ts := f.p.IndirectTargets[pc]
	if len(ts) == 0 {
		return ""
	}
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = f.ref(t)
	}
	return " [" + strings.Join(names, ", ") + "]"
}

func (f *formatter) data(b *strings.Builder) {
	segs := f.p.Data
	// Data labels beyond the image still need to exist (e.g. a label at
	// the very end used only as a bound); track the furthest address.
	end := prog.DataBase
	for _, s := range segs {
		if a := s.Addr + uint64(len(s.Bytes)); a > end {
			end = a
		}
	}
	var dataLabels []uint64
	//lint:ignore detrange sorted below before rendering
	for addr := range f.labels {
		if addr >= prog.DataBase {
			dataLabels = append(dataLabels, addr)
			if addr > end {
				end = addr
			}
		}
	}
	if len(segs) == 0 && len(dataLabels) == 0 {
		return
	}
	sort.Slice(dataLabels, func(i, j int) bool { return dataLabels[i] < dataLabels[j] })

	// Merge segments into one contiguous image from DataBase.
	img := make([]byte, end-prog.DataBase)
	covered := make([]bool, len(img))
	for _, s := range segs {
		copy(img[s.Addr-prog.DataBase:], s.Bytes)
		for i := range s.Bytes {
			covered[s.Addr-prog.DataBase+uint64(i)] = true
		}
	}

	b.WriteString(".data\n")
	pos := prog.DataBase
	// space reports whether the bytes from at on render as .space: an
	// uncovered byte, or the start of a long zero run (a .space buffer,
	// which assembles to covered zeros).
	space := func(at, upto uint64) bool {
		if !covered[at-prog.DataBase] {
			return true
		}
		n := uint64(0)
		for at+n < upto && n < minSpaceRun && img[at+n-prog.DataBase] == 0 {
			n++
		}
		return n == minSpaceRun
	}
	emitChunk := func(upto uint64) {
		for pos < upto {
			if space(pos, upto) {
				n := uint64(0)
				for pos+n < upto && img[pos+n-prog.DataBase] == 0 { // uncovered bytes are zero in img
					n++
				}
				fmt.Fprintf(b, "\t.space %d\n", n)
				pos += n
				continue
			}
			var vals []string
			for pos < upto && len(vals) < 16 && !space(pos, upto) {
				vals = append(vals, fmt.Sprintf("%d", img[pos-prog.DataBase]))
				pos++
			}
			fmt.Fprintf(b, "\t.byte %s\n", strings.Join(vals, ", "))
		}
	}
	for _, addr := range dataLabels {
		emitChunk(addr)
		for _, l := range f.labels[addr] {
			fmt.Fprintf(b, "%s:\n", l)
		}
	}
	emitChunk(end)
}
