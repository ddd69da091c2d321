package runner

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cisim/internal/faults"
	"cisim/internal/ooo"
	"cisim/internal/trace"
	"cisim/internal/workloads"
)

func testWorkload(t testing.TB) *workloads.Workload {
	t.Helper()
	w, ok := workloads.Get("xgo")
	if !ok {
		t.Fatal("workload xgo missing")
	}
	return w
}

// TestTraceMemoized: a second request for the same (workload, iters,
// options) key returns the cached trace — the same object — without
// regenerating it.
func TestTraceMemoized(t *testing.T) {
	c := NewCache()
	w := testWorkload(t)
	opt := trace.Options{MaxInstrs: 5_000}

	tr1, hit, err := c.Trace(w, 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first lookup reported a hit")
	}
	tr2, hit, err := c.Trace(w, 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second lookup missed")
	}
	if tr1 != tr2 {
		t.Error("second lookup regenerated the trace (different pointer)")
	}
	s := c.Stats()
	if s.TraceMisses != 1 || s.TraceHits != 1 {
		t.Errorf("trace stats = %d hits / %d misses, want 1/1", s.TraceHits, s.TraceMisses)
	}

	// A different key must not share the entry.
	tr3, hit, err := c.Trace(w, 100, trace.Options{MaxInstrs: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if hit || tr3 == tr1 {
		t.Error("different options shared a cache entry")
	}
}

func TestProgramMemoized(t *testing.T) {
	c := NewCache()
	w := testWorkload(t)
	p1, hit, err := c.Program(w, 100)
	if err != nil || hit {
		t.Fatalf("first: hit=%v err=%v", hit, err)
	}
	p2, hit, err := c.Program(w, 100)
	if err != nil || !hit || p2 != p1 {
		t.Fatalf("second: hit=%v same=%v err=%v", hit, p2 == p1, err)
	}
	if p3, hit, _ := c.Program(w, 150); hit || p3 == p1 {
		t.Error("different iteration count shared a program")
	}
}

// TestDetailedCanonicalKey: configurations identical after defaults are
// applied share one simulation (SegmentSize 0 means 1, Completion zero
// value is the paper default), while a semantically different
// configuration does not.
func TestDetailedCanonicalKey(t *testing.T) {
	c := NewCache()
	w := testWorkload(t)
	base := ooo.Config{Machine: ooo.CI, WindowSize: 64, MaxInstrs: 4_000}

	r1, hit, err := c.Detailed(w, 100, base)
	if err != nil || hit {
		t.Fatalf("first: hit=%v err=%v", hit, err)
	}
	spelled := base
	spelled.SegmentSize = 1 // the default, spelled out
	r2, hit, err := c.Detailed(w, 100, spelled)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || r2 != r1 {
		t.Error("canonically identical config re-simulated")
	}
	diff := base
	diff.SegmentSize = 4
	if r3, hit, _ := c.Detailed(w, 100, diff); hit || r3 == r1 {
		t.Error("different segment size shared a result")
	}
	s := c.Stats()
	if s.ResultMisses != 2 || s.ResultHits != 1 {
		t.Errorf("result stats = %d hits / %d misses, want 1/2", s.ResultHits, s.ResultMisses)
	}
	// One prep serves both simulations; the result hit never asks for it.
	if s.PrepMisses != 1 || s.PrepHits != 1 {
		t.Errorf("prep stats = %d hits / %d misses, want 1/1", s.PrepHits, s.PrepMisses)
	}
}

// TestDetailedUncacheable: observation hooks opt a configuration out of
// memoization entirely — two identical calls both simulate.
func TestDetailedUncacheable(t *testing.T) {
	c := NewCache()
	w := testWorkload(t)
	cfg := ooo.Config{Machine: ooo.CI, WindowSize: 64, MaxInstrs: 4_000,
		Debug: func(string, ...interface{}) {}}
	r1, hit, err := c.Detailed(w, 100, cfg)
	if err != nil || hit {
		t.Fatalf("first: hit=%v err=%v", hit, err)
	}
	r2, hit, err := c.Detailed(w, 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit || r2 == r1 {
		t.Error("debug-hooked config was memoized")
	}
	if s := c.Stats(); s.ResultHits != 0 || s.ResultMisses != 0 {
		t.Errorf("uncacheable runs touched result stats: %+v", s)
	}
}

// TestSingleflight: concurrent requests for one address run the compute
// exactly once; every caller gets the value.
func TestSingleflight(t *testing.T) {
	c := NewCache()
	var computes atomic.Int32
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	vals := make([]interface{}, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.get("kind", "k", "addr1", func() (interface{}, error) {
				computes.Add(1)
				<-release
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times", n)
	}
	for i, v := range vals {
		if v != "value" {
			t.Errorf("caller %d got %v", i, v)
		}
	}
	if s := c.entries["addr1"]; s == nil {
		t.Error("entry not retained")
	}
}

// TestCachePanicAndError: a panicking or failing compute surfaces as an
// error without deadlocking waiters, keeps the panic's stack trace, and
// is NOT memoized — a retry recomputes and can succeed.
func TestCachePanicAndError(t *testing.T) {
	c := NewCache()
	_, hit, err := c.get("k", "key", "a1", func() (interface{}, error) { panic("compute exploded") })
	if hit || err == nil || !strings.Contains(err.Error(), "compute exploded") {
		t.Fatalf("panic not converted: hit=%v err=%v", hit, err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("compute panic lost its stack: %v", err)
	}
	// Failures are not memoized: a retry recomputes and succeeds.
	v, hit, err := c.get("k", "key", "a1", func() (interface{}, error) { return "fine", nil })
	if hit || err != nil || v != "fine" {
		t.Errorf("retry after panic: hit=%v val=%v err=%v", hit, v, err)
	}
	// And the successful value is now cached.
	if _, hit, _ := c.get("k", "key", "a1", func() (interface{}, error) { return "other", nil }); !hit {
		t.Error("successful retry was not memoized")
	}

	want := errors.New("assembler failed")
	_, _, err = c.get("k", "key2", "a2", func() (interface{}, error) { return nil, want })
	if !errors.Is(err, want) {
		t.Errorf("error not propagated: %v", err)
	}
	if _, hit, _ := c.get("k", "key2", "a2", func() (interface{}, error) { return "recovered", nil }); hit {
		t.Error("failed compute was memoized")
	}
}

// fpVal is a test artifact whose fingerprint tracks its (mutable) value,
// so mutating it after the store simulates in-memory corruption.
type fpVal struct{ v uint64 }

func (f *fpVal) Fingerprint() uint64 { return f.v }

// TestCacheSelfHeal: a hit whose artifact fails its checksum is
// quarantined, counted, reported on the event stream, and recomputed;
// persistent corruption surfaces as an error instead of looping.
func TestCacheSelfHeal(t *testing.T) {
	c := NewCache()
	var mu sync.Mutex
	var events []Event
	c.SetSink(sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}))
	var computes atomic.Int32
	compute := func() (interface{}, error) {
		computes.Add(1)
		return &fpVal{v: 7}, nil
	}
	v1, _, err := c.get(KindTrace, "k", "a", compute)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored artifact behind the cache's back.
	v1.(*fpVal).v = 8
	v2, hit, err := c.get(KindTrace, "k", "a", compute)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("healed read reported a hit")
	}
	if v2.(*fpVal).v != 7 || computes.Load() != 2 {
		t.Errorf("corrupt artifact not recomputed: val=%+v computes=%d", v2, computes.Load())
	}
	if s := c.Stats(); s.Healed != 1 {
		t.Errorf("healed = %d, want 1", s.Healed)
	}
	mu.Lock()
	var corrupt int
	for _, e := range events {
		if e.Ev == "cache_corrupt" && e.Kind == KindTrace {
			corrupt++
		}
	}
	mu.Unlock()
	if corrupt != 1 {
		t.Errorf("cache_corrupt events = %d, want 1", corrupt)
	}

	// Persistent corruption: a drifting artifact fails its checksum on
	// every re-read. One heal is attempted; the second failure is an
	// error, not an infinite recompute loop.
	v2.(*fpVal).v = 9
	_, _, err = c.get(KindTrace, "k", "a", func() (interface{}, error) { return &drifting{}, nil })
	if err == nil || !strings.Contains(err.Error(), "checksum again") {
		t.Errorf("persistent corruption not reported: %v", err)
	}
}

// drifting returns a different fingerprint on every call, so it always
// looks corrupt on re-read — the persistent-corruption case.
type drifting struct{ n uint64 }

func (d *drifting) Fingerprint() uint64 { d.n++; return d.n }

// TestCacheCorruptFault: the cache-corrupt fault point flips the stored
// checksum, driving the same heal path end to end via a fault plan.
func TestCacheCorruptFault(t *testing.T) {
	plan, err := faults.Parse(FaultCacheCorrupt)
	if err != nil {
		t.Fatal(err)
	}
	faults.Set(plan)
	defer faults.Clear()
	c := NewCache()
	var computes atomic.Int32
	compute := func() (interface{}, error) {
		computes.Add(1)
		return &fpVal{v: 42}, nil
	}
	if _, _, err := c.get(KindResult, "k", "a", compute); err != nil {
		t.Fatal(err)
	}
	// First read after the corrupted store: detected, healed, recomputed.
	v, _, err := c.get(KindResult, "k", "a", compute)
	if err != nil || v.(*fpVal).v != 42 {
		t.Fatalf("heal failed: val=%v err=%v", v, err)
	}
	if computes.Load() != 2 {
		t.Errorf("computes = %d, want 2", computes.Load())
	}
	if s := c.Stats(); s.Healed != 1 {
		t.Errorf("healed = %d, want 1", s.Healed)
	}
	// The fault fired once; the healed entry now verifies clean.
	if _, hit, _ := c.get(KindResult, "k", "a", compute); !hit || computes.Load() != 2 {
		t.Error("healed entry did not stick")
	}
}

// TestCacheEvents: lookups emit cache events tagged hit/miss.
func TestCacheEvents(t *testing.T) {
	c := NewCache()
	var mu sync.Mutex
	var events []Event
	c.SetSink(sinkFunc(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}))
	compute := func() (interface{}, error) { return 1, nil }
	c.get(KindTrace, "k", "a", compute)
	c.get(KindTrace, "k", "a", compute)
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Ev != "cache" || events[0].Hit == nil || *events[0].Hit || events[0].Kind != KindTrace {
		t.Errorf("first event = %+v", events[0])
	}
	if events[1].Hit == nil || !*events[1].Hit {
		t.Errorf("second event = %+v", events[1])
	}
	c.SetSink(nil)
	c.get(KindTrace, "k", "a", compute)
	if len(events) != 2 {
		t.Error("detached sink still received events")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache()
	c.get("k", "k", "a", func() (interface{}, error) { return 1, nil })
	c.Reset()
	if s := c.Stats(); s.Hits()+s.Misses() != 0 {
		t.Errorf("stats survived reset: %+v", s)
	}
	_, hit, _ := c.get("k", "k", "a", func() (interface{}, error) { return 2, nil })
	if hit {
		t.Error("entry survived reset")
	}
}

func TestCacheStatsMath(t *testing.T) {
	s := CacheStats{ProgramHits: 1, TraceHits: 2, TraceMisses: 2, PrepHits: 1, ResultMisses: 4}
	if s.Hits() != 4 || s.Misses() != 6 {
		t.Errorf("hits=%d misses=%d", s.Hits(), s.Misses())
	}
	if got := s.HitRate(); got != 0.4 {
		t.Errorf("hit rate = %v", got)
	}
	if got := s.TraceHitRate(); got != 0.5 {
		t.Errorf("trace hit rate = %v", got)
	}
	if got := (CacheStats{}).HitRate(); got != 0 {
		t.Errorf("empty hit rate = %v", got)
	}
	d := s.Sub(CacheStats{TraceHits: 1, ResultMisses: 1})
	if d.TraceHits != 1 || d.ResultMisses != 3 || d.ProgramHits != 1 {
		t.Errorf("sub = %+v", d)
	}
}
