package api

// Sweeps sharing one process share the artifact cache, but nothing else:
// each sweep's sink and span collector ride its own context down to the
// pool and the cache. This test runs two different sweeps at the same
// time and checks that each stream holds that sweep's events and spans
// only.

import (
	"context"
	"sync"
	"testing"

	"cisim/internal/runner"
	"cisim/internal/telemetry"
)

// recordingSink keeps a sweep's events. On run_start it waits until
// every sweep of the test has started, so the sweeps' pool intervals
// overlap.
type recordingSink struct {
	started *sync.WaitGroup
	mu      sync.Mutex
	events  []runner.Event // guarded by mu
}

func (s *recordingSink) Emit(e runner.Event) {
	if e.Ev == "run_start" && s.started != nil {
		s.started.Done()
		s.started.Wait()
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *recordingSink) snapshot() []runner.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]runner.Event(nil), s.events...)
}

// soloAddrs runs one experiment alone on a cold cache and returns every
// artifact address its events name.
func soloAddrs(t *testing.T, id string) map[string]bool {
	t.Helper()
	runner.Artifacts.Reset()
	sink := &recordingSink{}
	req := &SweepRequest{V: Version, Experiments: []string{id}, Quick: true}
	if _, err := Run(context.Background(), req, RunOptions{Sink: sink}); err != nil {
		t.Fatal(err)
	}
	addrs := map[string]bool{}
	for _, e := range sink.snapshot() {
		if e.Addr != "" {
			addrs[e.Addr] = true
		}
	}
	return addrs
}

// TestRunConcurrentSweepsIsolated: two concurrent sweeps of different
// experiments, each with its own sink and collector. Every event a
// sweep's sink receives names its own experiment or an artifact its
// solo run looks up, every stream has cache events, and every span in a
// sweep's collector is of its trace and parented inside it.
func TestRunConcurrentSweepsIsolated(t *testing.T) {
	ids := []string{"table1", "table2"}
	solo := map[string]map[string]bool{}
	for _, id := range ids {
		solo[id] = soloAddrs(t, id)
	}

	runner.Artifacts.Reset()
	var started sync.WaitGroup
	started.Add(len(ids))
	sinks := make([]*recordingSink, len(ids))
	cols := make([]*telemetry.Collector, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		sinks[i] = &recordingSink{started: &started}
		cols[i] = telemetry.NewCollector(telemetry.TraceID("isolation", id))
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			root := cols[i].StartWith("", "test:sweep")
			defer root.End()
			ctx := telemetry.WithCollector(context.Background(), cols[i], root.ID())
			req := &SweepRequest{V: Version, Experiments: []string{id}, Quick: true, Jobs: 2}
			if _, err := Run(ctx, req, RunOptions{Sink: sinks[i]}); err != nil {
				t.Error(err)
			}
		}(i, id)
	}
	wg.Wait()

	for i, id := range ids {
		cacheEvents := 0
		for _, e := range sinks[i].snapshot() {
			if e.Ev == "cache" {
				cacheEvents++
			}
			if e.Exp != "" && e.Exp != id {
				t.Errorf("%s's stream got a %s event of %s", id, e.Ev, e.Exp)
			}
			if e.Addr != "" && !solo[id][e.Addr] {
				t.Errorf("%s's stream got a %s event for %s (%s), which its solo run never looks up", id, e.Ev, e.Addr, e.Key)
			}
		}
		if cacheEvents == 0 {
			t.Errorf("%s's stream has no cache events", id)
		}

		recs := cols[i].Records()
		spans := map[string]bool{}
		for _, r := range recs {
			spans[r.Span] = true
		}
		jobs := 0
		for _, r := range recs {
			if r.Trace != cols[i].Trace() {
				t.Errorf("%s's collector holds a %s span of trace %s", id, r.Name, r.Trace)
			}
			if r.Name != "test:sweep" && !spans[r.Parent] {
				t.Errorf("%s's %s span has parent %q outside its collector", id, r.Name, r.Parent)
			}
			if r.Exp != "" && r.Exp != id {
				t.Errorf("%s's collector holds a %s span of %s", id, r.Name, r.Exp)
			}
			if r.Name == "job" {
				jobs++
			}
		}
		if jobs == 0 {
			t.Errorf("%s's collector has no job spans", id)
		}
	}
}
