package main

// cisim spans: offline analyzer for span traces — the JSONL written by
// `cisim run -spans FILE` or served by a daemon's /v1/sweeps/{id}/spans
// endpoint. Where `cisim events` aggregates the event stream, this
// command walks the span tree: what the wall clock was spent on
// (per-stage breakdown), which chain of jobs bounded it (critical
// path), and where time leaked into waiting (pool queue, idle workers,
// daemon queue, store lock).
// -chrome re-exports the trace for chrome://tracing or Perfetto.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"cisim/internal/stats"
	"cisim/internal/telemetry"
)

// writeSpans writes a span trace as JSONL, the run -spans output path.
func writeSpans(path string, recs []telemetry.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONL(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdSpans(args []string) error {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	top := fs.Int("top", 5, "slowest jobs to list")
	chrome := fs.String("chrome", "", "also export a Chrome trace-event file (chrome://tracing, Perfetto)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("spans needs one JSONL source: a file from 'cisim run -spans FILE' or a serve daemon's /v1/sweeps/{id}/spans URL")
	}
	src, name, err := openEventSource(fs.Arg(0))
	if err != nil {
		return err
	}
	defer src.Close()
	recs, err := telemetry.ReadJSONL(src)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no span records", name)
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		if err := telemetry.WriteChrome(f, recs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cisim: chrome trace written to %s (load in chrome://tracing or Perfetto)\n", *chrome)
	}
	fmt.Print(renderSpanAnalysis(recs, *top))
	return nil
}

// nameAgg accumulates one span name's durations.
type nameAgg struct {
	count   int
	totalUs float64
	maxUs   float64
}

func renderSpanAnalysis(recs []telemetry.Record, top int) string {
	byName := map[string]*nameAgg{}
	var jobs []telemetry.Record
	var sweep *telemetry.Record
	var jobQueueUs []float64
	var sweepQueueUs, lockWaitUs float64
	var bytesRead, bytesWritten int64
	var failed []telemetry.Record
	for i := range recs {
		r := recs[i]
		na := byName[r.Name]
		if na == nil {
			na = &nameAgg{}
			byName[r.Name] = na
		}
		na.count++
		na.totalUs += r.DurUs
		if r.DurUs > na.maxUs {
			na.maxUs = r.DurUs
		}
		switch r.Name {
		case "sweep":
			if sweep == nil {
				sweep = &recs[i]
			}
		case "job":
			jobs = append(jobs, r)
			if r.Attempt == 0 { // retries carry no queue wait
				jobQueueUs = append(jobQueueUs, r.QueueUs)
			}
		case "serve:sweep", "client:sweep":
			sweepQueueUs += r.QueueUs
		case "store:lock_wait":
			lockWaitUs += r.DurUs
		case "store:get":
			bytesRead += r.Bytes
		case "store:put":
			bytesWritten += r.Bytes
		}
		if r.Err != "" {
			failed = append(failed, r)
		}
	}

	// The critical-path total is the sweep span — it brackets exactly the
	// pool interval the run footer reports as wall clock. A trace without
	// one (truncated file) falls back to the full span extent.
	wallUs := spanExtentUs(recs)
	if sweep != nil {
		wallUs = sweep.DurUs
	}

	out := ""
	ot := stats.NewTable(fmt.Sprintf("span trace %s", recs[0].Trace), "metric", "value")
	ot.AddRow("span records", len(recs))
	ot.AddRow("critical-path total (ms)", wallUs/1e3)
	ot.AddRow("job spans", len(jobs))
	// A job's queue wait runs from pool start to its first attempt, so
	// the waits of one sweep overlap and only their distribution means
	// anything; idle worker time is the additive figure.
	if len(jobQueueUs) > 0 {
		sort.Float64s(jobQueueUs)
		ot.AddRow("job queue wait p50 (ms)", percentile(jobQueueUs, 50)/1e3)
		ot.AddRow("job queue wait p99 (ms)", percentile(jobQueueUs, 99)/1e3)
	}
	if sweep != nil && len(jobs) > 0 {
		ot.AddRow("worker idle (ms)", workerIdleUs(recs, jobs)/1e3)
	}
	if sweepQueueUs > 0 {
		ot.AddRow("sweep queue wait (ms)", sweepQueueUs/1e3)
	}
	if lockWaitUs > 0 {
		ot.AddRow("store lock wait total (ms)", lockWaitUs/1e3)
	}
	if bytesRead > 0 {
		ot.AddRow("store bytes read", int(bytesRead))
	}
	if bytesWritten > 0 {
		ot.AddRow("store bytes written", int(bytesWritten))
	}
	if len(failed) > 0 {
		ot.AddRow("failed spans", len(failed))
	}
	out += ot.String() + "\n"

	// Per-name breakdown, busiest first. Totals overlap (a job span
	// contains its stage spans) — this is attribution, not a partition.
	names := make([]string, 0, len(byName))
	//lint:ignore detrange sorted just below
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := byName[names[i]], byName[names[j]]
		if a.totalUs != b.totalUs {
			return a.totalUs > b.totalUs
		}
		return names[i] < names[j]
	})
	bt := stats.NewTable("time by span name (nested spans overlap)", "name", "count", "total ms", "mean ms", "max ms")
	for _, n := range names {
		na := byName[n]
		bt.AddRow(n, na.count, na.totalUs/1e3, na.totalUs/float64(na.count)/1e3, na.maxUs/1e3)
	}
	out += bt.String() + "\n"

	if chain := criticalChain(jobs); len(chain) > 0 {
		var chainUs float64
		for _, r := range chain {
			chainUs += r.DurUs
		}
		share := 0.0
		if wallUs > 0 {
			share = 100 * chainUs / wallUs
		}
		ct := stats.NewTable(
			fmt.Sprintf("critical path through jobs (%d link(s), %.1f%% of wall)", len(chain), share),
			"job", "start ms", "ms", "worker")
		for _, r := range chain {
			ct.AddRow(r.Exp+"/"+r.Key, r.TUs/1e3, r.DurUs/1e3, fmt.Sprintf("w%d", r.Worker))
		}
		out += ct.String() + "\n"
	}

	if len(jobs) > 0 && top > 0 {
		sorted := make([]telemetry.Record, len(jobs))
		copy(sorted, jobs)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].DurUs > sorted[j].DurUs })
		if top > len(sorted) {
			top = len(sorted)
		}
		st := stats.NewTable(fmt.Sprintf("slowest %d job span(s)", top),
			"job", "ms", "queue ms", "attempt", "worker")
		for _, r := range sorted[:top] {
			attempt := r.Attempt
			if attempt == 0 {
				attempt = 1 // only stamped on retries, like job events
			}
			st.AddRow(r.Exp+"/"+r.Key, r.DurUs/1e3, r.QueueUs/1e3, attempt, fmt.Sprintf("w%d", r.Worker))
		}
		out += st.String() + "\n"
	}

	if len(failed) > 0 {
		ft := stats.NewTable("failed spans", "name", "context", "error")
		for _, r := range failed {
			ctx := r.Exp
			if r.Key != "" {
				ctx += "/" + r.Key
			}
			if ctx == "" {
				ctx = r.Addr
			}
			ft.AddRow(r.Name, ctx, r.Err)
		}
		out += ft.String() + "\n"
	}
	return out
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// workerIdleUs is the pool capacity the jobs left unused: summed over
// sweep spans, the distinct workers that ran the sweep's jobs times the
// sweep's duration, minus those jobs' summed durations.
func workerIdleUs(recs, jobs []telemetry.Record) float64 {
	workers := map[string]map[int]bool{}
	busyUs := map[string]float64{}
	for _, j := range jobs {
		if workers[j.Parent] == nil {
			workers[j.Parent] = map[int]bool{}
		}
		workers[j.Parent][j.Worker] = true
		busyUs[j.Parent] += j.DurUs
	}
	var idleUs float64
	for _, r := range recs {
		if r.Name == "sweep" {
			idleUs += float64(len(workers[r.Span]))*r.DurUs - busyUs[r.Span]
		}
	}
	return idleUs
}

// spanExtentUs is the duration from the earliest span start to the
// latest span end — the fallback wall clock for traces with no sweep
// span.
func spanExtentUs(recs []telemetry.Record) float64 {
	minT, maxEnd := recs[0].TUs, recs[0].End()
	for _, r := range recs[1:] {
		if r.TUs < minT {
			minT = r.TUs
		}
		if r.End() > maxEnd {
			maxEnd = r.End()
		}
	}
	return maxEnd - minT
}

// criticalChain walks backward from the latest-finishing job span
// through the latest-finishing job that ended before each link started,
// yielding the chain of non-overlapping jobs that bounded the sweep's
// wall clock (returned in chronological order). With enough workers the
// chain is one link — the slowest job; near the serial limit it covers
// most of the wall.
func criticalChain(jobs []telemetry.Record) []telemetry.Record {
	if len(jobs) == 0 {
		return nil
	}
	sorted := make([]telemetry.Record, len(jobs))
	copy(sorted, jobs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].End() < sorted[j].End() })
	cur := sorted[len(sorted)-1]
	chain := []telemetry.Record{cur}
	for {
		var prev *telemetry.Record
		for i := len(sorted) - 1; i >= 0; i-- {
			if sorted[i].End() <= cur.TUs {
				prev = &sorted[i]
				break
			}
		}
		if prev == nil {
			break
		}
		cur = *prev
		chain = append(chain, cur)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}
