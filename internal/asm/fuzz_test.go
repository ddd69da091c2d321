package asm

import (
	"errors"
	"strings"
	"testing"
)

// FuzzAssemble: assembly source is outside input (workload files, the
// serve API's programs), so the assembler must never panic, every error
// must point at a source line, and whatever assembles must survive a
// Format round trip: reassembling the formatted source gives the same
// code, entry point, data bytes, symbols and indirect targets
// (assertRoundTrip), and formats to the same text again. The seed corpus
// in testdata/fuzz/FuzzAssemble holds the built-in workload sources;
// `make fuzz` explores beyond it.
func FuzzAssemble(f *testing.F) {
	f.Add("main:\n\tli r1, 3\nx:\n\taddi r1, r1, -1\n\tbne r1, r0, x\n\thalt\n")
	f.Add(".data\nt:\n\t.addr a, b\n.text\nmain:\n\tla r2, t\n\tld r3, 8(r2)\n\tjr r3 [a, b]\na:\nb:\n\thalt\n")
	f.Add(".data\n\t.space 3\n\t.byte 1, -1\n\t.word -5\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := AssembleNamed("fuzz.s", src)
		if err != nil {
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("error %q is %T, want *asm.Error", err, err)
			}
			if ae.File != "fuzz.s" || ae.Line < 1 || ae.Line > strings.Count(src, "\n")+1 {
				t.Fatalf("error %q has position %s:%d, want fuzz.s and a line of the source", err, ae.File, ae.Line)
			}
			return
		}
		assertRoundTrip(t, p, "fuzz")
		text := Format(p)
		if again := Format(MustAssemble(text)); again != text {
			t.Fatalf("Format is not a fixed point:\n--- once ---\n%s\n--- twice ---\n%s", text, again)
		}
	})
}
