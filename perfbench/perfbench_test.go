package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cisim/internal/exp"
	"cisim/internal/telemetry"
)

// tinyExps keeps the self-tests' sweeps small while still covering an
// ideal experiment (fig3), a trace-only one (table1) and a detailed one
// (fig5).
var tinyExps = []string{"table1", "fig3", "fig5"}

// tinyRun runs one workload at a tiny size: the smallest timed phase
// (one operation) over tinyExps, with shrunken direct layer calls.
func tinyRun(t *testing.T, workload string, traced bool, digests gate) *outcome {
	t.Helper()
	b, err := newBench(config{workload: workload, seed: 7, seconds: 0.01, traced: traced,
		out: t.TempDir(), exps: tinyExps, digests: digests, directDiv: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	o, err := b.run()
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, traced, err)
	}
	return o
}

// checkMetrics fails unless o carries exactly the specified metrics,
// each with its unit, and the printed report names each one.
func checkMetrics(t *testing.T, label string, o *outcome, specs []layerSpec) {
	t.Helper()
	if len(o.metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", label, len(o.metrics), len(specs))
	}
	var out bytes.Buffer
	if err := report(&out, o); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		m, ok := o.metrics[s.name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, s.name)
			continue
		}
		if m.Unit != s.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", label, s.name, m.Unit, s.unit)
		}
		if !strings.Contains(out.String(), s.name) {
			t.Errorf("%s: report does not print %s", label, s.name)
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line is not the summary: %v", label, err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Errorf("%s: summary correct=%v attempted=%d failed=%d", label, sum.Correct, sum.Attempted, sum.Failed)
	}
}

func TestTinyRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	traced := map[string]*outcome{}
	for _, w := range workloadNames() {
		checkMetrics(t, w+" untraced", tinyRun(t, w, false, recordedDigests()), endToEndSpecs)
		o := tinyRun(t, w, true, recordedDigests())
		checkMetrics(t, w+" traced", o, layerSpecs)
		traced[w] = o
	}

	cold, warm := traced["sweep-cold"], traced["sweep-warm"]
	get := func(o *outcome, name string) float64 { return o.metrics[name].Value }
	if n := get(cold, "ooo.sim_count"); n == 0 {
		t.Errorf("sweep-cold simulated nothing")
	}
	if n := get(warm, "ooo.sim_count"); n != 0 {
		t.Errorf("sweep-warm ooo.sim_count = %v, want 0: every detailed result must come from the store", n)
	}
	if g, p := get(warm, "store.get_count"), get(cold, "store.put_count"); g != p || p == 0 {
		t.Errorf("sweep-warm store.get_count %v != sweep-cold store.put_count %v", g, p)
	}
	if n := get(warm, "store.put_count"); n != 0 {
		t.Errorf("sweep-warm wrote %v store entries, want 0", n)
	}

	// Per-layer self times plus worker idle account for the pool's
	// capacity (workers × traced sweep wall).
	for _, w := range workloadNames() {
		l := traced[w].ledger
		got, want := l.jobLayersMs()+l.idleS()*1e3, l.capacityMs
		if want <= 0 || abs(got-want) > 0.01*want {
			t.Errorf("%s: job layers %.3f ms + idle %.3f ms = %.3f ms, want pool capacity %.3f ms",
				w, l.jobLayersMs(), l.idleS()*1e3, got, want)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestGateCatchesPerturbedDigest makes sure the correctness gate is not
// vacuous: one wrong digest must fail the run on each path that checks
// result bytes.
func TestGateCatchesPerturbedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweeps")
	}
	for _, w := range []string{"sweep-cold", "serve-mixed"} {
		g := recordedDigests()
		g["fig5"] = strings.Repeat("0", 64)
		o := tinyRun(t, w, false, g)
		if o.failed == 0 {
			t.Errorf("%s: a perturbed fig5 digest did not fail the run (attempted %d)", w, o.attempted)
		}
	}
}

func TestIdealExpsMatchProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep")
	}
	b, err := newBench(config{workload: "sweep-cold", seed: 1, seconds: 0.01,
		out: t.TempDir(), exps: exp.IDs(), digests: recordedDigests(), directDiv: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	tr := &tracer{col: telemetry.NewCollector("")}
	if _, err := b.w.measure(b, 0.01, tr); err != nil {
		t.Fatal(err)
	}
	recs := tr.col.Records()
	jobExp := map[string]string{}
	for _, r := range recs {
		if r.Name == "job" {
			jobExp[r.Span] = r.Exp
		}
	}
	got := map[string]bool{}
	for _, r := range recs {
		if r.Name == "stage:prep" && strings.Contains(r.Key, " ideal ") {
			got[jobExp[r.Parent]] = true
		}
	}
	if len(got) != len(idealExps) {
		t.Errorf("experiments building ideal preps: %v, want %v", got, idealExps)
	}
	for e := range idealExps {
		if !got[e] {
			t.Errorf("experiments building ideal preps: %v, want %v", got, idealExps)
		}
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json's metric lists in
// step with what perfbench prints.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, got []entry, want []layerSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i, e := range got {
			if e.Name != want[i].name || e.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, perfbench %s %s", kind, i, e.Name, e.Unit, want[i].name, want[i].unit)
			}
		}
	}
	match("end_to_end", bj.EndToEnd, endToEndSpecs)
	match("per_layer", bj.PerLayer, layerSpecs)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, perfbench %v", names, workloadNames())
	}
}

func TestTailPct(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tailPct(xs); v != 90 || p != 90 {
		t.Errorf("tailPct(1..100) = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tailPct(xs[:20]); v != 10.5 || p != 50 {
		t.Errorf("tailPct(1..20) = %v at p%v, want the median 10.5 at p50", v, p)
	}
	if v, p := tailPct(xs[:21]); v != 11 || p != 100*11.0/21 {
		t.Errorf("tailPct(1..21) = %v at p%v, want 11", v, p)
	}
}

func TestSelfTimeClipsAndMergesChildren(t *testing.T) {
	parent := telemetry.Record{Span: "p", TUs: 0, DurUs: 100}
	kids := []telemetry.Record{
		{Parent: "p", TUs: 50, DurUs: 20},  // [50,70]
		{Parent: "p", TUs: 10, DurUs: 20},  // [10,30]
		{Parent: "p", TUs: 20, DurUs: 20},  // [20,40], overlaps the one before
		{Parent: "p", TUs: 90, DurUs: 30},  // [90,120], clipped to 100
		{Parent: "p", TUs: 200, DurUs: 10}, // outside
	}
	if got := selfUs(parent, kids); got != 100-30-20-10 {
		t.Errorf("selfUs = %v, want 40", got)
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e5; i++ {
			n += i * i % 7
		}
	}
	return n
}

func TestParseProfileFindsHotFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	share, err := profileShare(buf.Bytes(), "cisim/perfbench.burnCPU")
	if err != nil {
		t.Fatal(err)
	}
	if share < 50 {
		t.Errorf("burnCPU holds %.1f%% of the samples, want most of them", share)
	}
}

func TestStageCounts(t *testing.T) {
	stacks := []stack{
		{funcs: []string{"x", "cisim/internal/ooo.(*machine).issueStage", stepFunc, "run"}, n: 3},
		{funcs: []string{"cisim/internal/ooo.(*machine).fetchStage", stepFunc, "run"}, n: 1},
		{funcs: []string{stepFunc, "run"}, n: 1},
		{funcs: []string{"elsewhere"}, n: 5},
	}
	counts := map[string]int64{}
	if under := stageCounts(stacks, counts); under != 5 {
		t.Errorf("samples under step = %d, want 5", under)
	}
	if counts["issue"] != 3 || counts["fetch"] != 1 || len(counts) != 2 {
		t.Errorf("stage counts = %v", counts)
	}
}
