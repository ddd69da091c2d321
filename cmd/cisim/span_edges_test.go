package main

// The shape of the span tree is part of the observability contract:
// `cisim spans` and perfbench's ledger attribute time by walking parent
// links, so which span nests under which must not drift when the
// plumbing underneath changes. testdata/span_edges.golden pins the
// multiset of (span name, parent span name) edges of traced quick runs
// of table1, fig3 and fig5 — cold and warm against one persistent
// store, at -jobs 1 and -jobs 4. Regenerate it, after a deliberate
// change to the tree, with
//
//	go test ./cmd/cisim -run TestSpanTreeEdges -update-span-edges

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"cisim/internal/runner"
	"cisim/internal/telemetry"
)

var updateSpanEdges = flag.Bool("update-span-edges", false, "rewrite testdata/span_edges.golden from this tree")

const spanEdgesGolden = "testdata/span_edges.golden"

// edgeName labels a span for the edge multiset: its name, with
// stage:prep split by the prep its key names, because the ideal-model
// prep and the ooo prep nest at different depths.
func edgeName(r telemetry.Record) string {
	if r.Name != "stage:prep" {
		return r.Name
	}
	if strings.Contains(r.Key, " ideal ") {
		return "stage:prep(ideal)"
	}
	return "stage:prep(ooo)"
}

// spanEdges renders a trace's edge multiset as sorted
// "child <- parent xN" lines; a root's parent is "(root)".
func spanEdges(recs []telemetry.Record) []string {
	names := map[string]string{}
	for _, r := range recs {
		names[r.Span] = edgeName(r)
	}
	counts := map[string]int{}
	for _, r := range recs {
		parent := "(root)"
		if r.Parent != "" {
			if parent = names[r.Parent]; parent == "" {
				parent = "(missing)"
			}
		}
		counts[edgeName(r)+" <- "+parent]++
	}
	lines := make([]string, 0, len(counts))
	//lint:ignore detrange sorted just below
	for e, n := range counts {
		lines = append(lines, fmt.Sprintf("%s x%d", e, n))
	}
	sort.Strings(lines)
	return lines
}

// TestSpanTreeEdges: every traced run's edge multiset matches the
// golden file.
func TestSpanTreeEdges(t *testing.T) {
	var got strings.Builder
	for _, jobs := range []string{"1", "4"} {
		store := t.TempDir() + "/store"
		for _, mode := range []string{"cold", "warm"} {
			for _, id := range []string{"table1", "fig3", "fig5"} {
				spans := t.TempDir() + "/run.spans.jsonl"
				runner.Artifacts.Reset()
				if _, err := capture(t, func() error {
					return cmdRun([]string{"-quick", "-jobs", jobs, "-cache-dir", store, "-spans", spans, id})
				}); err != nil {
					t.Fatalf("%s -jobs %s %s: %v", mode, jobs, id, err)
				}
				data, err := os.ReadFile(spans)
				if err != nil {
					t.Fatal(err)
				}
				recs, err := telemetry.ReadJSONL(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "# %s -jobs %s %s\n", mode, jobs, id)
				for _, l := range spanEdges(recs) {
					got.WriteString(l + "\n")
				}
			}
		}
	}
	if *updateSpanEdges {
		if err := os.WriteFile(spanEdgesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(spanEdgesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("span tree edges differ from %s\n--- want\n%s--- got\n%s", spanEdgesGolden, want, got.String())
	}
}
