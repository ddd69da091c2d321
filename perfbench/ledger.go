package main

import (
	"strings"

	"cisim/internal/runner"
	"cisim/internal/telemetry"
)

// ledger accumulates per-layer totals from span groups. A group is one
// collector's records — span IDs are unique within a group only: the
// benchmark's collector on the sweep workloads, and one group per sweep the
// daemon traced on serve-mixed.
type ledger struct {
	nproc int
	ms    map[string]float64 // per-layer time totals, ms
	n     map[string]float64 // per-layer counts and bytes
	jobMs []float64          // every job span's duration
	queue []float64          // every serve:sweep's queue wait, ms
	// served maps a daemon job id to its time inside the daemon, from
	// submission to the end of its serve:sweep span, ms.
	served map[string]float64

	apiMs, poolMs, mergeMs float64 // api.Run (or serve:sweep) wall, sweep spans, merge spans
	capacityMs             float64 // Σ workers × sweep span duration
	jobTotalMs             float64 // Σ job span durations under sweep spans
}

func newLedger(nproc int) *ledger {
	return &ledger{nproc: nproc, ms: map[string]float64{}, n: map[string]float64{}, served: map[string]float64{}}
}

// addGroup attributes one group's spans to layers. A span's self time
// is its duration minus the part of it its children cover.
func (l *ledger) addGroup(recs []telemetry.Record) {
	kids := map[string][]telemetry.Record{}
	for _, r := range recs {
		if r.Parent != "" {
			kids[r.Parent] = append(kids[r.Parent], r)
		}
	}
	self := func(r telemetry.Record) float64 { return selfUs(r, kids[r.Span]) / 1e3 }
	for _, r := range recs {
		dur := r.DurUs / 1e3
		switch r.Name {
		case "job":
			l.jobMs = append(l.jobMs, dur)
			if idealExps[r.Exp] {
				// No span covers the ideal schedulers: a fig3 job's self
				// time is spent in them.
				l.ms["ideal.run_ms"] += self(r)
			} else {
				// Everything else a job does outside the cache: result
				// assembly, and waiting on another job's in-flight
				// artifact.
				l.ms["exp.job_self_ms"] += self(r)
			}
		case "stage:program":
			l.ms["prog.assemble_ms"] += self(r)
		case "stage:trace":
			l.ms["trace.generate_ms"] += self(r)
			l.n["trace.count"]++
		case "stage:prep":
			if strings.Contains(r.Key, " ideal ") {
				l.ms["ideal.prepare_ms"] += self(r)
			} else {
				l.ms["ooo.prepare_ms"] += self(r)
			}
		case "stage:sim":
			l.ms["ooo.sim_ms"] += self(r)
			if r.Err == "" && !servedFromStore(kids[r.Span]) {
				l.n["ooo.sim_count"]++
			}
		case "store:get":
			l.n["store.get_count"]++
			l.ms["store.get_ms"] += self(r)
			l.n["store.get_bytes"] += float64(r.Bytes)
		case "store:put":
			l.n["store.put_count"]++
			l.ms["store.put_ms"] += self(r)
			l.n["store.put_bytes"] += float64(r.Bytes)
		case "store:lock_wait":
			l.ms["store.lock_wait_ms"] += self(r)
		case "sweep":
			var njobs int
			var busy float64
			for _, k := range kids[r.Span] {
				if k.Name == "job" {
					njobs++
					busy += k.DurUs / 1e3
				}
			}
			workers := min(l.nproc, njobs)
			l.poolMs += dur
			l.capacityMs += float64(workers) * dur
			l.jobTotalMs += busy
		case "merge":
			l.mergeMs += dur
		case "bench:api.Run":
			l.apiMs += dur
		case "serve:sweep":
			l.apiMs += dur
			l.queue = append(l.queue, r.QueueUs/1e3)
			l.served[r.Key] = r.QueueUs/1e3 + dur
		case "bench:exp.WriteJSON":
			l.ms["exp.json_ms"] += dur
		case "bench:store.Open":
			l.ms["store.open_ms"] += dur
		}
	}
}

// idleS is the pool's unused worker time: workers × pool interval minus
// the job time, summed over sweeps, in seconds.
func (l *ledger) idleS() float64 { return (l.capacityMs - l.jobTotalMs) / 1e3 }

// jobLayersMs sums the self times of every layer that runs inside a
// job: together with the pool's idle time they make up the pool's
// capacity.
func (l *ledger) jobLayersMs() float64 {
	t := 0.0
	for _, k := range []string{
		"exp.job_self_ms", "ideal.run_ms", "prog.assemble_ms", "trace.generate_ms",
		"ideal.prepare_ms", "ooo.prepare_ms", "ooo.sim_ms",
		"store.get_ms", "store.put_ms", "store.lock_wait_ms",
	} {
		t += l.ms[k]
	}
	return t
}

// idealExps are the experiments whose jobs run the ideal schedulers
// (the ones that ask runner.Artifacts for an ideal prep); a self-test
// checks the set against a cold sweep's spans.
var idealExps = map[string]bool{"fig3": true}

// servedFromStore reports whether a stage:sim span's result came from
// the persistent store: a store:get child that moved bytes.
func servedFromStore(kids []telemetry.Record) bool {
	for _, k := range kids {
		if k.Name == "store:get" && k.Err == "" && k.Bytes > 0 {
			return true
		}
	}
	return false
}

// selfUs is r's duration minus the union of its children's intervals,
// clipped to r's own interval.
func selfUs(r telemetry.Record, kids []telemetry.Record) float64 {
	start, end := r.TUs, r.End()
	ivs := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.TUs, start), min(k.End(), end)
		if e > s {
			ivs = append(ivs, [2]float64{s, e})
		}
	}
	// Children of one span run sequentially on one goroutine, so the
	// list is nearly sorted; an insertion sort keeps this allocation-free.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j][0] < ivs[j-1][0]; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	covered, curS, curE := 0.0, 0.0, -1.0
	for _, iv := range ivs {
		if iv[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = iv[0], iv[1]
		} else if iv[1] > curE {
			curE = iv[1]
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return r.DurUs - covered
}

// addStats sums two cache statistics snapshots.
func addStats(a, b runner.CacheStats) runner.CacheStats {
	return runner.CacheStats{
		ProgramHits: a.ProgramHits + b.ProgramHits, ProgramMisses: a.ProgramMisses + b.ProgramMisses,
		TraceHits: a.TraceHits + b.TraceHits, TraceMisses: a.TraceMisses + b.TraceMisses,
		PrepHits: a.PrepHits + b.PrepHits, PrepMisses: a.PrepMisses + b.PrepMisses,
		ResultHits: a.ResultHits + b.ResultHits, ResultMisses: a.ResultMisses + b.ResultMisses,
		Healed:    a.Healed + b.Healed,
		StoreHits: a.StoreHits + b.StoreHits, StorePuts: a.StorePuts + b.StorePuts,
		StoreEvictions: a.StoreEvictions + b.StoreEvictions, StoreHealed: a.StoreHealed + b.StoreHealed,
	}
}
