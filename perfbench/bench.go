package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"cisim/internal/api"
	"cisim/internal/exp"
	"cisim/internal/runner"
	"cisim/internal/telemetry"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string
	exps     []string
	digests  gate
	// directDiv shrinks the direct layer calls' programs (1: the
	// public default size).
	directDiv int
}

// bench is one benchmark run: its settings, its private scratch
// directory, and the workload it drives.
type bench struct {
	config
	nproc   int
	scratch string
	rng     *rand.Rand
	w       workload
}

// workload is what the three workloads have in common: a set-up that
// may be repeated, a timed phase of operations, and a tear-down.
type workload interface {
	// setUp builds the state the timed phase starts from; run calls it
	// setupReps times and reports the median as setup_s. Correctness
	// checks made during set-up count as operations.
	setUp(b *bench) (checked, failed int, err error)
	// measure runs operations for at least the given wall time, and at
	// least once, recording the benchmark's own spans on tr (nil: untraced).
	measure(b *bench, seconds float64, tr *tracer) (*phase, error)
	// tearDown releases what setUp built.
	tearDown()
	// setupReps is how many set-ups a run makes; zero means the
	// workload times its per-operation set-up inside measure instead.
	setupReps() int
}

var workloadFactories = map[string]func() workload{
	"sweep-cold":  func() workload { return &sweepWorkload{cold: true} },
	"sweep-warm":  func() workload { return &sweepWorkload{} },
	"serve-mixed": func() workload { return &serveWorkload{} },
}

func workloadNames() []string { return []string{"sweep-cold", "sweep-warm", "serve-mixed"} }

func newBench(cfg config) (*bench, error) {
	mk, ok := workloadFactories[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.out, "perfbench-")
	if err != nil {
		return nil, err
	}
	return &bench{config: cfg, nproc: runtime.NumCPU(), scratch: scratch,
		rng: rand.New(rand.NewSource(cfg.seed)), w: mk()}, nil
}

func (b *bench) close() {
	b.w.tearDown()
	runner.Artifacts.SetStore(nil)
	runner.Artifacts.Reset()
	_ = os.RemoveAll(b.scratch)
}

// outcome is what a run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
	ledger            *ledger // traced runs
}

func (o *outcome) note(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// run performs the invocation: set-up, then either the untraced timed
// phase (end-to-end metrics) or the untraced and traced halves plus the
// direct layer calls (per-layer ledger).
func (b *bench) run() (*outcome, error) {
	o := &outcome{metrics: map[string]metric{}}
	reps := b.w.setupReps()
	if b.traced {
		reps = min(reps, 1)
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			b.w.tearDown()
		}
		t0 := time.Now()
		checked, failed, err := b.w.setUp(b)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.attempted += checked
		o.failed += failed
	}
	if !b.traced {
		p, err := b.w.measure(b, b.seconds, nil)
		if err != nil {
			return nil, err
		}
		if reps == 0 {
			setups = p.setups
		}
		o.attempted += p.attempted
		o.failed += p.failed
		endToEnd(o, p, setups, len(b.exps))
		return o, nil
	}
	return o, b.runTraced(o)
}

// runTraced measures half the run untraced and half traced, then the
// direct layer calls, and fills o with the per-layer ledger.
func (b *bench) runTraced(o *outcome) error {
	half := b.seconds / 2
	plain, err := b.w.measure(b, half, nil)
	if err != nil {
		return err
	}
	tr := &tracer{col: telemetry.NewCollector(telemetry.TraceID("perfbench", b.workload))}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced, err := b.w.measure(b, half, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	o.attempted += plain.attempted + traced.attempted
	o.failed += plain.failed + traced.failed
	groups := append([][]telemetry.Record{tr.col.Records()}, traced.serverSpans...)
	if err := b.writeSpans(groups); err != nil {
		return err
	}

	led := newLedger(b.nproc)
	for _, g := range groups {
		led.addGroup(g)
	}
	ideal, err := profileShare(prof.Bytes(), "cisim/internal/ideal.")
	if err != nil {
		return fmt.Errorf("reading the traced phase's CPU profile: %w", err)
	}
	d, err := measureDirect(b.directDiv)
	if err != nil {
		return fmt.Errorf("direct layer calls: %w", err)
	}
	perLayer(o, led, traced, plain, d, ideal)
	o.ledger = led
	if traced.ops > 0 && plain.ops > 0 {
		u, t := median(plain.rtt), median(traced.rtt)
		o.metrics["telemetry.overhead_pct"] = metric{100 * (t - u) / u, "%"}
		o.note("telemetry.overhead_pct: traced median op %.3f ms (n=%d) vs untraced %.3f ms (n=%d); traced includes the CPU profile",
			t, traced.ops, u, plain.ops)
	}
	o.note("spans written to %s", b.spanPath())
	return nil
}

func (b *bench) spanPath() string {
	return filepath.Join(b.out, "spans-"+b.workload+".jsonl")
}

// writeSpans writes every span group out once the run is over; spans
// stay in memory while measuring.
func (b *bench) writeSpans(groups [][]telemetry.Record) error {
	f, err := os.Create(b.spanPath())
	if err != nil {
		return err
	}
	for _, g := range groups {
		if err := telemetry.WriteJSONL(f, g); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// sweepRequest is the request both sweep workloads issue: the quick
// sweep of the selected experiments, nproc jobs wide.
func (b *bench) sweepRequest() *api.SweepRequest {
	return &api.SweepRequest{V: api.Version, Experiments: b.exps, Quick: true, Jobs: b.nproc}
}

// sweepOnce runs one sweep through api.Run and checks each experiment's
// exp.WriteJSON bytes against its recorded digest. It returns the
// api.Run wall time and the number of experiments checked and failed.
func (b *bench) sweepOnce(tr *tracer) (wall time.Duration, checked, failed int, err error) {
	end := tr.span("bench:api.Run")
	t0 := time.Now()
	out, err := api.Run(context.Background(), b.sweepRequest(), api.RunOptions{})
	wall = time.Since(t0)
	end()
	if err != nil {
		return wall, 0, 0, err
	}
	var buf bytes.Buffer
	for _, oc := range out.Outcomes {
		checked++
		if oc.Err != nil || oc.Aborted || oc.Result == nil {
			failed++
			continue
		}
		buf.Reset()
		end := tr.span("bench:exp.WriteJSON")
		werr := exp.WriteJSON(&buf, []exp.JSONResult{exp.ToJSON(oc.Exp, oc.Result)})
		end()
		if werr != nil || !b.digests.ok(oc.Exp.ID, buf.Bytes()) {
			failed++
		}
	}
	return wall, checked, failed, nil
}
