package main

// Golden-schema and behavior tests for span tracing (`cisim run -spans`
// and the `cisim spans` analyzer). Mirrors schema_test.go: the span
// JSONL is a public interface, so its shape is pinned in
// testdata/span_schema.json and checked against telemetry.Record's json
// tags in both directions, and every line of a real traced run must
// satisfy the per-span-name required/optional matrix. The determinism
// contract — run results byte-identical with tracing on or off, at any
// -jobs value, cold or warm store — is enforced here too.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cisim/internal/api"
	"cisim/internal/runner"
	"cisim/internal/telemetry"
)

type spanSchema struct {
	Fields map[string]string    `json:"fields"`
	Spans  map[string]eventSpec `json:"spans"`
}

func loadSpanSchema(t *testing.T) *spanSchema {
	t.Helper()
	data, err := os.ReadFile("testdata/span_schema.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spanSchema
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("parsing span_schema.json: %v", err)
	}
	return &s
}

// TestSpanSchemaMatchesStruct: the schema's field inventory and
// telemetry.Record's json tags are the same set.
func TestSpanSchemaMatchesStruct(t *testing.T) {
	s := loadSpanSchema(t)
	tags := map[string]bool{}
	typ := reflect.TypeOf(telemetry.Record{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := strings.Split(f.Tag.Get("json"), ",")[0]
		if name == "" || name == "-" {
			t.Fatalf("Record.%s has no json tag; every field must serialize under a documented name", f.Name)
		}
		tags[name] = true
		if _, ok := s.Fields[name]; !ok {
			t.Errorf("Record.%s serializes as %q, which span_schema.json does not list — add it", f.Name, name)
		}
	}
	var stale []string
	//lint:ignore detrange sorted just below
	for name := range s.Fields {
		if !tags[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("span_schema.json lists %q, which telemetry.Record no longer has — remove it", name)
	}
	for sp, spec := range s.Spans {
		for _, name := range append(append([]string{}, spec.Required...), spec.Optional...) {
			if _, ok := s.Fields[name]; !ok {
				t.Errorf("span %q references field %q missing from the field inventory", sp, name)
			}
		}
	}
}

// validateSpanStream checks every line of a span file against the
// schema matrix and returns the set of span names observed.
func validateSpanStream(t *testing.T, s *spanSchema, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable span line %q: %v", line, err)
		}
		name, _ := m["name"].(string)
		spec, ok := s.Spans[name]
		if !ok {
			t.Fatalf("run emitted span name %q that span_schema.json does not document: %s", name, line)
		}
		seen[name] = true
		allowed := map[string]bool{}
		for _, f := range spec.Required {
			allowed[f] = true
			if _, ok := m[f]; !ok {
				t.Errorf("%s span missing required field %q: %s", name, f, line)
			}
		}
		for _, f := range spec.Optional {
			allowed[f] = true
		}
		var got []string
		//lint:ignore detrange sorted just below
		for f := range m {
			got = append(got, f)
		}
		sort.Strings(got)
		for _, f := range got {
			if !allowed[f] {
				t.Errorf("%s span carries field %q the schema does not allow for it: %s", name, f, line)
			}
			if want, ok := s.Fields[f]; ok {
				if jt := jsonType(m[f]); jt != want {
					t.Errorf("field %q is %s, schema says %s: %s", f, jt, want, line)
				}
			}
		}
	}
	return seen
}

// TestSpanStreamMatchesSchema traces a cold store-backed run and a warm
// one and validates every span line against the matrix. The cold run
// must show the write path (store:put, store:lock_wait, pipeline
// stages); the warm run, after resetting the in-memory cache, the read
// path (store:get).
func TestSpanStreamMatchesSchema(t *testing.T) {
	s := loadSpanSchema(t)
	dir := t.TempDir()
	cache := dir + "/store"
	cold, warm := dir+"/cold.spans.jsonl", dir+"/warm.spans.jsonl"
	for _, spans := range []string{cold, warm} {
		runner.Artifacts.Reset()
		if _, err := capture(t, func() error {
			return cmdRun([]string{"-quick", "-spans", spans, "-cache-dir", cache, "fig5"})
		}); err != nil {
			t.Fatal(err)
		}
	}
	seenCold := validateSpanStream(t, s, cold)
	for _, want := range []string{"sweep", "job", "merge", "stage:sim", "store:put", "store:lock_wait"} {
		if !seenCold[want] {
			t.Errorf("cold traced run emitted no %s span; got %v", want, seenCold)
		}
	}
	if seenWarm := validateSpanStream(t, s, warm); !seenWarm["store:get"] {
		t.Errorf("warm traced run emitted no store:get span; got %v", seenWarm)
	}
}

// TestSpanParentage: every span in a traced run references its trace
// and an existing parent, and the sweep span is the lone root.
func TestSpanParentage(t *testing.T) {
	f := t.TempDir() + "/run.spans.jsonl"
	runner.Artifacts.Reset()
	if _, err := capture(t, func() error {
		return cmdRun([]string{"-quick", "-spans", f, "table1"})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	trace := recs[0].Trace
	for _, r := range recs {
		ids[r.Span] = true
		if r.Trace != trace {
			t.Errorf("span %s has trace %q, others %q", r.Span, r.Trace, trace)
		}
	}
	roots := 0
	for _, r := range recs {
		if r.Parent == "" {
			roots++
			if r.Name != "sweep" {
				t.Errorf("root span is %q, want sweep", r.Name)
			}
			continue
		}
		if !ids[r.Parent] {
			t.Errorf("span %s (%s) parent %q not in the trace", r.Span, r.Name, r.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want exactly 1 (the sweep)", roots)
	}
}

// TestSpansByteIdentity: `run -json` output is byte-identical with
// tracing on or off, at different -jobs values, against a cold and a
// warm persistent store — spans are a pure side channel.
func TestSpansByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cache := dir + "/store"
	run := func(extra ...string) string {
		runner.Artifacts.Reset()
		args := append([]string{"-quick", "-json", "-cache-dir", cache}, extra...)
		args = append(args, "fig5")
		out, err := capture(t, func() error { return cmdRun(args) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run() // cold store, no tracing
	for i, variant := range []struct {
		name  string
		extra []string
	}{
		{"warm traced", []string{"-spans", dir + "/a.jsonl"}},
		{"warm traced jobs=1", []string{"-spans", dir + "/b.jsonl", "-jobs", "1"}},
		{"warm traced jobs=4", []string{"-spans", dir + "/c.jsonl", "-jobs", "4"}},
		{"warm untraced", nil},
	} {
		if got := run(variant.extra...); got != base {
			t.Errorf("variant %d (%s): -json output differs from the untraced cold run", i, variant.name)
		}
	}
}

// TestSweepSpanMatchesWall: the sweep span — the `cisim spans`
// critical-path total — brackets the pool interval the run footer
// reports as wall clock, within 5%.
func TestSweepSpanMatchesWall(t *testing.T) {
	col := telemetry.NewCollector(telemetry.TraceID("test wall"))
	telemetry.Enable(col)
	defer telemetry.Disable()
	runner.Artifacts.Reset()
	req := &api.SweepRequest{V: api.Version, Experiments: []string{"table1"}, Quick: true}
	out, err := api.Run(context.Background(), req, api.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sweepUs float64
	for _, r := range col.Records() {
		if r.Name == "sweep" {
			sweepUs = r.DurUs
		}
	}
	if sweepUs == 0 {
		t.Fatal("no sweep span recorded")
	}
	wallUs := telemetry.Us(out.Summary.Wall)
	diff := sweepUs - wallUs
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05*wallUs {
		t.Errorf("sweep span %.0fµs vs footer wall %.0fµs: off by more than 5%%", sweepUs, wallUs)
	}
}

// TestCmdSpansAnalyzer: the analyzer renders the expected tables from a
// real trace and the -chrome export is structurally valid.
func TestCmdSpansAnalyzer(t *testing.T) {
	dir := t.TempDir()
	spans := dir + "/run.spans.jsonl"
	chrome := dir + "/run.chrome.json"
	runner.Artifacts.Reset()
	if _, err := capture(t, func() error {
		return cmdRun([]string{"-quick", "-spans", spans, "table1"})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return cmdSpans([]string{"-chrome", chrome, spans})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"span trace", "critical-path total (ms)", "time by span name",
		"critical path through jobs", "slowest", "job queue wait p50 (ms)", "job queue wait p99 (ms)",
		"worker idle (ms)"} {
		if !strings.Contains(out, want) {
			t.Errorf("spans output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "queue wait total") {
		t.Errorf("spans output still sums overlapping queue waits:\n%s", out)
	}

	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	metas, completes := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
			if e.Name != "thread_name" {
				t.Errorf("meta event named %q", e.Name)
			}
		case "X":
			completes++
			if e.Ts < 0 || e.Dur < 0 || e.Pid != 1 {
				t.Errorf("malformed complete event: %+v", e)
			}
			if e.Args["span"] == nil {
				t.Errorf("complete event %q lost its span ID", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if metas == 0 || completes == 0 {
		t.Errorf("chrome export has %d meta and %d complete events", metas, completes)
	}
}

// TestSpanAnalysisQueueAndIdle pins the waiting figures on a
// hand-built trace: two sweeps, one daemon-queued, with jobs on two and
// one workers. Queue waits report as a distribution (they overlap), and
// worker idle is per sweep: workers × duration − busy time.
func TestSpanAnalysisQueueAndIdle(t *testing.T) {
	recs := []telemetry.Record{
		{Trace: "t", Span: "a", Name: "serve:sweep", DurUs: 12000, QueueUs: 3000},
		{Trace: "t", Span: "s1", Parent: "a", Name: "sweep", DurUs: 10000},
		{Trace: "t", Span: "j1", Parent: "s1", Name: "job", DurUs: 6000, Worker: 1},
		{Trace: "t", Span: "j2", Parent: "s1", Name: "job", DurUs: 3000, Worker: 2, QueueUs: 1000},
		{Trace: "t", Span: "j3", Parent: "s1", Name: "job", DurUs: 4000, Worker: 2, QueueUs: 4000},
		{Trace: "t", Span: "j4", Parent: "s1", Name: "job", DurUs: 2000, Worker: 1, QueueUs: 9000, Attempt: 2},
		{Trace: "t", Span: "s2", Name: "sweep", DurUs: 5000},
		{Trace: "t", Span: "j5", Parent: "s2", Name: "job", DurUs: 4000, Worker: 1, QueueUs: 2000},
	}
	out := renderSpanAnalysis(recs, 0)
	// First attempts wait 0, 1, 4 and 2 ms: p50 1 ms, p99 4 ms; the
	// retry's 9 ms is not a queue wait. Idle: 2×10 − 15 + 1×5 − 4 = 6 ms.
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if i := strings.LastIndex(line, " "); i > 0 {
			rows[strings.TrimSpace(line[:i])] = line[i+1:]
		}
	}
	for label, want := range map[string]string{
		"job queue wait p50 (ms)": "1.00",
		"job queue wait p99 (ms)": "4.00",
		"worker idle (ms)":        "6.00",
		"sweep queue wait (ms)":   "3.00",
	} {
		if rows[label] != want {
			t.Errorf("%s = %q, want %s:\n%s", label, rows[label], want, out)
		}
	}
}

// TestCmdSpansRejectsGarbage: truncated or non-span input is a clear
// error, not a half-rendered report.
func TestCmdSpansRejectsGarbage(t *testing.T) {
	bad := t.TempDir() + "/bad.jsonl"
	if err := os.WriteFile(bad, []byte("{\"not\":\"a span\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error { return cmdSpans([]string{bad}) }); err == nil {
		t.Error("span file without trace/span/name fields should be rejected")
	}
	if _, err := capture(t, func() error { return cmdSpans([]string{bad + ".missing"}) }); err == nil {
		t.Error("missing file should be an error")
	}
}
