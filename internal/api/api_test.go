package api

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"cisim/internal/runner"
	"cisim/internal/store"
	"cisim/internal/workloads"
)

// TestValidate: the single validation path both frontends share rejects
// what the CLI rejects, with the same diagnostics.
func TestValidate(t *testing.T) {
	ws := workloads.All()
	allNames := make([]string, len(ws))
	for i, w := range ws {
		allNames[i] = w.Name
	}
	cases := []struct {
		name    string
		req     SweepRequest
		wantErr string // empty = valid
	}{
		{"valid single", SweepRequest{V: Version, Experiments: []string{"fig5"}}, ""},
		{"valid all", SweepRequest{V: Version, Experiments: []string{"all"}, Quick: true}, ""},
		{"valid full workloads", SweepRequest{V: Version, Experiments: []string{"table1"}, Workloads: allNames}, ""},
		{"wrong version", SweepRequest{V: 99, Experiments: []string{"fig5"}}, "unsupported schema version 99"},
		{"zero version", SweepRequest{Experiments: []string{"fig5"}}, "unsupported schema version 0"},
		{"no experiments", SweepRequest{V: Version}, "no experiments"},
		{"unknown experiment", SweepRequest{V: Version, Experiments: []string{"fig99"}}, `unknown experiment "fig99"`},
		{"all mixed with ids", SweepRequest{V: Version, Experiments: []string{"all", "fig5"}}, "all"},
		{"duplicate experiment", SweepRequest{V: Version, Experiments: []string{"fig5", "fig5"}}, "fig5"},
		{"unknown workload", SweepRequest{V: Version, Experiments: []string{"fig5"}, Workloads: []string{"nope"}}, `unknown workload "nope"`},
		{"partial workloads", SweepRequest{V: Version, Experiments: []string{"fig5"}, Workloads: allNames[:1]}, "partial selection is unsupported"},
		{"negative jobs", SweepRequest{V: Version, Experiments: []string{"fig5"}, Jobs: -1}, "jobs must be >= 0"},
		{"negative timeout", SweepRequest{V: Version, Experiments: []string{"fig5"}, TimeoutMs: -5}, "timeout_ms must be >= 0"},
		{"negative retries", SweepRequest{V: Version, Experiments: []string{"fig5"}, Retries: -1}, "retries must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestTimeout(t *testing.T) {
	r := SweepRequest{TimeoutMs: 1500}
	if got := r.Timeout(); got != 1500*time.Millisecond {
		t.Errorf("Timeout() = %v, want 1.5s", got)
	}
	if got := (&SweepRequest{}).Timeout(); got != 0 {
		t.Errorf("zero TimeoutMs gave deadline %v", got)
	}
}

// TestRun: the engine executes a quick sweep end to end — one outcome
// per experiment in request order, merged results, a populated summary.
func TestRun(t *testing.T) {
	runner.Artifacts.Reset()
	req := &SweepRequest{V: Version, Experiments: []string{"table1", "fig12"}, Quick: true}
	out, err := Run(context.Background(), req, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Aborted {
		t.Fatal("unaborted run reported Aborted")
	}
	if len(out.Outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(out.Outcomes))
	}
	for i, id := range []string{"table1", "fig12"} {
		oc := out.Outcomes[i]
		if oc.Exp.ID != id {
			t.Errorf("outcome %d is %s, want %s (request order)", i, oc.Exp.ID, id)
		}
		if oc.Err != nil || oc.Result == nil {
			t.Errorf("outcome %s: err=%v result=%v", id, oc.Err, oc.Result)
		}
	}
	nw := len(workloads.All())
	if out.Summary.Jobs != 2*nw {
		t.Errorf("summary jobs = %d, want %d (one per experiment-workload)", out.Summary.Jobs, 2*nw)
	}
	if got := len(out.JSONResults()); got != 2 {
		t.Errorf("JSONResults() has %d entries, want 2", got)
	}
}

// TestRunInvalid: an invalid request never reaches the pool.
func TestRunInvalid(t *testing.T) {
	_, err := Run(context.Background(), &SweepRequest{V: Version}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "no experiments") {
		t.Fatalf("Run accepted an invalid request: %v", err)
	}
}

// TestRunCancelled: a pre-cancelled context is the drain path — the
// sweep returns aborted with its experiments holes, not an error.
func TestRunCancelled(t *testing.T) {
	runner.Artifacts.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Run(ctx, &SweepRequest{V: Version, Experiments: []string{"table1"}, Quick: true}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Aborted {
		t.Error("cancelled run not marked Aborted")
	}
	if len(out.JSONResults()) != 0 {
		t.Error("aborted experiment leaked into JSONResults")
	}
}

// TestBuild: version info degrades gracefully and always carries the
// API version.
func TestBuild(t *testing.T) {
	v := Build()
	if v.Module == "" || v.Version == "" || v.GoVersion == "" {
		t.Errorf("Build() left identity fields empty: %+v", v)
	}
	if v.API != Version {
		t.Errorf("Build().API = %d, want %d", v.API, Version)
	}
}

// jobEndSink keeps every job_end event.
type jobEndSink struct {
	mu   sync.Mutex
	ends []runner.Event
}

func (s *jobEndSink) Emit(e runner.Event) {
	if e.Ev != "job_end" {
		return
	}
	s.mu.Lock()
	s.ends = append(s.ends, e)
	s.mu.Unlock()
}

// TestRunStoreWarmSimulatesNothing: over a store a cold sweep filled, a
// sweep from an empty in-memory cache serves every detailed result and
// every ideal grid from disk, so none of those jobs reports simulated
// instructions.
func TestRunStoreWarmSimulatesNothing(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runner.Artifacts.Reset()
	runner.Artifacts.SetStore(st)
	defer func() {
		runner.Artifacts.SetStore(nil)
		runner.Artifacts.Reset()
	}()
	req := &SweepRequest{V: Version, Experiments: []string{"fig3", "fig5"}, Quick: true}
	if _, err := Run(context.Background(), req, RunOptions{}); err != nil {
		t.Fatal(err)
	}

	runner.Artifacts.Reset()
	sink := &jobEndSink{}
	out, err := Run(context.Background(), req, RunOptions{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(workloads.All()); len(sink.ends) != want {
		t.Fatalf("%d job_end events, want %d", len(sink.ends), want)
	}
	for _, e := range sink.ends {
		if e.Instrs != 0 {
			t.Errorf("store-warm job %s/%s reports %d instructions simulated, want 0", e.Exp, e.Key, e.Instrs)
		}
	}
	if out.Summary.Instrs != 0 {
		t.Errorf("store-warm sweep reports %d instructions simulated, want 0", out.Summary.Instrs)
	}
	if cs := out.Summary.Cache; cs.StorePuts != 0 || cs.IdealMisses != uint64(len(workloads.All())) {
		t.Errorf("store-warm cache stats = %+v, want no puts and one ideal grid per workload", cs)
	}
}
