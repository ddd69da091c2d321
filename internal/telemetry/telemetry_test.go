package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDDeterministic(t *testing.T) {
	a, b := TraceID("run", "all"), TraceID("run", "all")
	if a != b {
		t.Fatalf("TraceID not deterministic: %s vs %s", a, b)
	}
	if len(a) != 32 || !isHex(a) {
		t.Fatalf("TraceID %q is not 32 hex chars", a)
	}
	if TraceID("run", "all") == TraceID("run", "fig5") {
		t.Fatal("different parts produced the same trace ID")
	}
	// The separator byte keeps part boundaries unambiguous.
	if TraceID("ab", "c") == TraceID("a", "bc") {
		t.Fatal("part boundaries are ambiguous")
	}
}

// TestSpanParentage: a span started from a ctx nests under the span
// that produced the ctx, siblings share a parent, and a ctx without a
// collector starts nothing.
func TestSpanParentage(t *testing.T) {
	c := NewCollector("")
	root, ctx := Start(WithCollector(context.Background(), c, ""), "sweep")
	if root.ID() == "" || strings.Repeat("0", 16) == root.ID() {
		t.Fatalf("bad root span ID %q", root.ID())
	}
	job, jctx := Start(ctx, "job")
	job.Exp, job.Key = "fig5", "loopy"
	stage, _ := Start(jctx, "stage:sim")
	stage.End()
	merge, _ := Start(ctx, "merge") // ctx still parents at the sweep
	merge.End()
	job.End()
	root.End()
	if sp, same := Start(context.Background(), "orphan"); sp != nil || same != context.Background() {
		t.Error("Start without a collector started a span or wrapped the ctx")
	}

	recs := c.Records()
	if len(recs) != 4 {
		t.Fatalf("want 4 records, got %d", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.Trace != c.Trace() {
			t.Errorf("span %s carries trace %q, want %q", r.Name, r.Trace, c.Trace())
		}
	}
	for name, parent := range map[string]string{
		"sweep": "", "job": root.ID(), "stage:sim": job.ID(), "merge": root.ID(),
	} {
		if got := byName[name].Parent; got != parent {
			t.Errorf("%s parent = %q, want %q", name, got, parent)
		}
	}
	if byName["job"].Exp != "fig5" || byName["job"].Key != "loopy" {
		t.Errorf("job attrs lost: %+v", byName["job"])
	}
}

// TestAdopt: a ctx that carries a collector is kept; otherwise the
// process-global collector is adopted, parented under the calling
// goroutine's bound span; with neither, the ctx is returned as is.
func TestAdopt(t *testing.T) {
	defer Disable()
	own := NewCollector("")
	Enable(NewCollector(""))
	sp, _ := Start(Adopt(WithCollector(context.Background(), own, "")), "own")
	sp.End()
	if len(own.Records()) != 1 || len(Current().Records()) != 0 {
		t.Error("Adopt replaced the ctx's own collector")
	}

	global := Current()
	outer := global.Start("bench:api.Run")
	unbind := outer.Bind()
	sweep, _ := Start(Adopt(context.Background()), "sweep")
	unbind()
	sweep.End()
	if sweep == nil || sweep.parent != outer.ID() {
		t.Errorf("adopted sweep parent = %q, want the bound %q", sweep.ID(), outer.ID())
	}

	Disable()
	bg := context.Background()
	if got := Adopt(bg); got != bg {
		t.Error("Adopt with no collector anywhere changed the ctx")
	}
}

func TestBindRestoresPreviousBinding(t *testing.T) {
	c := NewCollector("")
	outer := c.Start("outer")
	unbindOuter := outer.Bind()
	inner := c.Start("inner")
	unbindInner := inner.Bind()
	if got := c.Start("a"); got.parent != inner.ID() {
		t.Errorf("bound parent = %q, want inner %q", got.parent, inner.ID())
	}
	unbindInner()
	if got := c.Start("b"); got.parent != outer.ID() {
		t.Errorf("after restore parent = %q, want outer %q", got.parent, outer.ID())
	}
	unbindOuter()
	if got := c.Start("c"); got.parent != "" {
		t.Errorf("after full restore parent = %q, want none", got.parent)
	}
}

func TestNilSafety(t *testing.T) {
	sp, _ := Start(WithCollector(context.Background(), nil, ""), "anything")
	if sp != nil {
		t.Fatal("Start without a collector should return nil")
	}
	sp.End() // must not panic
	restore := sp.Bind()
	restore()
	if sp.ID() != "" {
		t.Fatal("nil span has an ID")
	}
}

func TestEndIdempotent(t *testing.T) {
	c := NewCollector("")
	sp := c.Start("x")
	sp.End()
	sp.End()
	if n := len(c.Records()); n != 1 {
		t.Fatalf("double End produced %d records", n)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	trace := TraceID("roundtrip")
	c := NewCollector(trace)
	sp := c.Start("client:sweep")
	h := FormatTraceparent(trace, sp.ID())
	gotTrace, gotSpan, ok := ParseTraceparent(h)
	if !ok || gotTrace != trace || gotSpan != sp.ID() {
		t.Fatalf("round trip failed: %q -> (%q, %q, %v)", h, gotTrace, gotSpan, ok)
	}
	for _, bad := range []string{
		"",
		"00-" + trace + "-" + sp.ID(),         // missing flags
		"01-" + trace + "-" + sp.ID() + "-01", // unknown version
		"00-" + strings.Repeat("0", 32) + "-" + sp.ID() + "-01",                   // zero trace
		"00-" + trace + "-" + strings.Repeat("0", 16) + "-01",                     // zero span
		"00-" + strings.ToUpper(trace) + "-" + sp.ID() + "-01",                    // uppercase hex
		"00-" + trace[:31] + "-" + sp.ID() + "-01",                                // short trace
		"00-" + trace + "-" + sp.ID() + "-01-extra",                               // extra field
		"00-" + strings.Replace(trace, trace[:1], "g", 1) + "-" + sp.ID() + "-01", // non-hex
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent accepted malformed %q", bad)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := NewCollector("")
	a := c.Start("sweep")
	b := c.Start("job")
	b.Exp, b.Key, b.Worker, b.QueueUs = "fig5", "loopy", 2, 12.5
	b.End()
	a.End()
	recs := c.Records()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d -> %d", len(recs), len(back))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Errorf("record %d changed in round trip:\n  %+v\n  %+v", i, recs[i], back[i])
		}
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("ReadJSONL accepted a malformed line")
	}
	if _, err := ReadJSONL(strings.NewReader("{}\n")); err == nil {
		t.Error("ReadJSONL accepted a record without trace/span/name")
	}
}

func TestRecordsSortedAndStable(t *testing.T) {
	c := NewCollector("")
	spans := make([]*Span, 8)
	for i := range spans {
		spans[i] = c.Start(fmt.Sprintf("s%d", i))
	}
	// End in reverse order; Records must still come back start-ordered.
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].End()
	}
	recs := c.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].TUs < recs[i-1].TUs ||
			(recs[i].TUs == recs[i-1].TUs && recs[i].Span < recs[i-1].Span) {
			t.Fatalf("records not sorted at %d: %+v after %+v", i, recs[i], recs[i-1])
		}
	}
}

func TestChromeExportStructure(t *testing.T) {
	c := NewCollector("")
	sweep := c.Start("sweep")
	job := c.StartWith(sweep.ID(), "job")
	job.Worker, job.Exp = 3, "fig5"
	stage := c.StartWith(job.ID(), "stage:sim")
	stage.Kind = "result"
	stage.End()
	job.End()
	sweep.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, c.Records()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		Unit        string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			for _, field := range []string{"name", "ts", "pid", "tid"} {
				if _, ok := ev[field]; !ok {
					t.Errorf("complete event missing %q: %v", field, ev)
				}
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
		if ev["name"] == "job" || ev["name"] == "stage:sim" {
			if tid, _ := ev["tid"].(float64); tid != 3 {
				t.Errorf("%v should render on worker lane 3, got tid %v", ev["name"], ev["tid"])
			}
		}
	}
	if complete != 3 {
		t.Errorf("want 3 complete events, got %d", complete)
	}
	if meta < 2 { // orchestrator lane + worker 3 lane
		t.Errorf("want thread_name metadata for 2 lanes, got %d", meta)
	}
}

// TestCollectorConcurrentStress is the -race stress test: many
// goroutines starting, attributing, and ending spans against one
// collector from ctxs derived from one sweep ctx — the shape of a
// parallel sweep — plus goroutines parenting through Bind, the way a
// benchmark's concurrent clients trace around the program, with a
// concurrent Records reader snapshotting mid-flight.
func TestCollectorConcurrentStress(t *testing.T) {
	c := NewCollector(TraceID("stress"))
	root, ctx := Start(WithCollector(context.Background(), c, ""), "sweep")

	const workers, perWorker = 8, 200
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Records() // must never race with writers
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w%2 == 0 {
					job, jctx := Start(ctx, "job")
					job.Worker = w + 1
					job.Key = fmt.Sprintf("job-%d-%d", w, i)
					stage, _ := Start(jctx, "stage:sim")
					stage.End()
					job.End()
					continue
				}
				client := c.StartWith(root.ID(), "client:sweep")
				client.Key = fmt.Sprintf("client-%d-%d", w, i)
				unbind := client.Bind()
				call := c.Start("bench:call")
				call.End()
				unbind()
				client.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	root.End()

	recs := c.Records()
	want := 1 + workers*perWorker*2
	if len(recs) != want {
		t.Fatalf("want %d records, got %d", want, len(recs))
	}
	byID := map[string]Record{}
	for _, r := range recs {
		if _, dup := byID[r.Span]; dup {
			t.Fatalf("duplicate span ID %s", r.Span)
		}
		byID[r.Span] = r
	}
	parentOf := map[string]string{"job": "sweep", "client:sweep": "sweep", "stage:sim": "job", "bench:call": "client:sweep"}
	for _, r := range recs {
		if r.Name == "sweep" {
			if r.Parent != "" {
				t.Errorf("sweep has parent %q", r.Parent)
			}
			continue
		}
		if p, ok := byID[r.Parent]; !ok || p.Name != parentOf[r.Name] {
			t.Errorf("%s %s parent %q is not a %s span", r.Name, r.Key, r.Parent, parentOf[r.Name])
		}
	}
}
