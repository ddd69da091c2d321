package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"cisim/internal/runner"
	"cisim/internal/store"
	"cisim/internal/telemetry"
)

// sweepWorkload is sweep-cold and sweep-warm. Both run the full quick
// sweep through api.Run with an empty in-memory cache; they differ in
// the persistent store behind it. Cold gives every sweep a fresh empty
// store, so every detailed result is simulated and written through.
// Warm reuses the store its set-up filled, so every detailed result is
// read back from disk.
type sweepWorkload struct {
	cold bool
	// st is the store set-up filled (warm only).
	st  *store.Store
	dir string
}

func (w *sweepWorkload) setupReps() int {
	if w.cold {
		// Cold's set-up is the fresh store each sweep starts from; it is
		// timed inside measure, once per sweep.
		return 0
	}
	return 3
}

// setUp fills a fresh store with one cold sweep (warm only); the sweep's
// results are checked like any other.
func (w *sweepWorkload) setUp(b *bench) (checked, failed int, err error) {
	if w.cold {
		return 0, 0, nil
	}
	w.st, w.dir, err = openFreshStore(b, nil)
	if err != nil {
		return 0, 0, err
	}
	runner.Artifacts.Reset()
	runner.Artifacts.SetStore(w.st)
	_, checked, failed, err = b.sweepOnce(nil)
	return checked, failed, err
}

func (w *sweepWorkload) tearDown() {
	runner.Artifacts.SetStore(nil)
	if w.st != nil {
		w.st.Close()
		os.RemoveAll(w.dir)
		w.st = nil
	}
}

// openFreshStore opens an empty store in a new directory under the
// run's scratch directory.
func openFreshStore(b *bench, tr *tracer) (*store.Store, string, error) {
	dir, err := os.MkdirTemp(b.scratch, "store-")
	if err != nil {
		return nil, "", err
	}
	end := tr.span("bench:store.Open")
	st, err := store.Open(store.Config{Dir: dir})
	end()
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("opening store: %w", err)
	}
	return st, dir, nil
}

// measure repeats sweeps until the wall time has passed. Before each
// sweep the in-memory cache is emptied (on cold, a fresh store is
// attached too) and the heap is collected, so every sweep starts from
// the same state. On cold, that per-sweep set-up is what setup_s
// reports.
func (w *sweepWorkload) measure(b *bench, secs float64, tr *tracer) (*phase, error) {
	p := &phase{}
	if tr != nil {
		// The program's own spans (sweep, job, stage:*, store:*) go to
		// the process-global collector.
		telemetry.Enable(tr.col)
		defer telemetry.Disable()
	}
	resetPeakRSS()
	start := time.Now()
	for p.ops == 0 || time.Since(start).Seconds() < secs {
		t0 := time.Now()
		after := func() {}
		if w.cold {
			st, dir, err := openFreshStore(b, tr)
			if err != nil {
				return nil, err
			}
			runner.Artifacts.SetStore(st)
			after = func() {
				runner.Artifacts.SetStore(nil)
				st.Close()
				os.RemoveAll(dir)
			}
		}
		runner.Artifacts.Reset()
		runtime.GC()
		p.setups = append(p.setups, time.Since(t0).Seconds())

		rt0, c0, t0 := markRuntime(), cpuSeconds(), time.Now()
		wall, checked, failed, err := b.sweepOnce(tr)
		rtt, c1, rt1 := time.Since(t0), cpuSeconds(), markRuntime()
		cs := runner.Artifacts.Stats()
		after()
		if err != nil {
			return nil, err
		}
		if !w.cold && cs.StorePuts > 0 {
			// A warm sweep that simulated something is not the workload
			// it claims to be.
			failed++
		}
		p.ops++
		p.attempted += checked
		p.failed += failed
		p.rtt = append(p.rtt, ms(rtt))
		p.sweep = append(p.sweep, wall.Seconds())
		p.cpu = append(p.cpu, c1-c0)
		p.rt.add(rt1.since(rt0))
		p.cache = addStats(p.cache, cs)
	}
	p.wall = time.Since(start).Seconds()
	p.peakRSSMB = peakRSSMB()
	return p, nil
}
