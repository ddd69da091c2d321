package telemetry

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent: the traceparent header is the one piece of
// client input that roots a daemon sweep's span tree, so its parser
// must never panic, must accept only well-formed IDs, and must agree
// with FormatTraceparent. The seed corpus lives in
// testdata/fuzz/FuzzParseTraceparent; `make fuzz` explores beyond it.
func FuzzParseTraceparent(f *testing.F) {
	trace, span := TraceID("fuzz"), "00000000000000a1"
	f.Add(FormatTraceparent(trace, span))
	f.Add(" " + FormatTraceparent(trace, span) + "\t")
	f.Add("00-" + strings.ToUpper(trace) + "-" + span + "-01")
	f.Add("00-" + strings.Repeat("0", 32) + "-" + span + "-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		trace, span, ok := ParseTraceparent(h)
		if !ok {
			if trace != "" || span != "" {
				t.Fatalf("rejected %q but returned IDs (%q, %q)", h, trace, span)
			}
			return
		}
		if len(trace) != 32 || len(span) != 16 || !isHex(trace) || !isHex(span) {
			t.Fatalf("accepted %q with malformed IDs (%q, %q)", h, trace, span)
		}
		if isZero(trace) || isZero(span) {
			t.Fatalf("accepted %q with an all-zero ID (%q, %q)", h, trace, span)
		}
		t2, s2, ok := ParseTraceparent(FormatTraceparent(trace, span))
		if !ok || t2 != trace || s2 != span {
			t.Fatalf("round trip of (%q, %q) gave (%q, %q, %v)", trace, span, t2, s2, ok)
		}
	})
}
