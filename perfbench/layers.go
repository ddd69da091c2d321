package main

// layerSpec is one per-layer metric and its unit.
type layerSpec struct{ name, unit string }

// layerSpecs lists every per-layer metric a traced run prints, grouped
// by layer in pipeline order. Totals are per operation (one sweep, or
// one serve request) unless the name says otherwise; NOTES.md defines
// each and names the end-to-end metric it should move.
var layerSpecs = func() []layerSpec {
	s := []layerSpec{
		{"prog.assemble_ms", "ms"},
		{"trace.generate_ms", "ms"},
		{"trace.count", "count"},
		{"trace.ns_per_instr", "ns"},
		{"ideal.prepare_ms", "ms"},
		{"ideal.run_ms", "ms"},
		{"ideal.ns_per_instr", "ns"},
		{"ideal.cpu_pct", "%"},
		{"ooo.sim_ms", "ms"},
		{"ooo.sim_count", "count"},
		{"ooo.prepare_ms", "ms"},
	}
	for _, m := range directMachines {
		s = append(s, layerSpec{"ooo.ns_per_cycle." + m.String(), "ns"}, layerSpec{"ooo.cycles." + m.String(), "count"})
	}
	for _, st := range stageNames {
		s = append(s, layerSpec{"ooo.stage." + st + "_pct", "%"})
	}
	for _, k := range cacheKinds {
		s = append(s, layerSpec{"runner.hits." + k, "count"}, layerSpec{"runner.misses." + k, "count"})
	}
	return append(s, []layerSpec{
		{"runner.job_p50_ms", "ms"},
		{"runner.job_tail_ms", "ms"},
		{"runner.worker_idle_s", "s"},
		{"exp.job_self_ms", "ms"},
		{"exp.merge_ms", "ms"},
		{"exp.json_ms", "ms"},
		{"store.open_ms", "ms"},
		{"store.get_count", "count"},
		{"store.get_ms", "ms"},
		{"store.get_bytes", "bytes"},
		{"store.put_count", "count"},
		{"store.put_ms", "ms"},
		{"store.put_bytes", "bytes"},
		{"store.lock_wait_ms", "ms"},
		{"api.overhead_ms", "ms"},
		{"serve.queue_wait_p50_ms", "ms"},
		{"serve.queue_wait_tail_ms", "ms"},
		{"serve.http_ms", "ms"},
		{"serve.rejected", "count"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_s", "s"},
		{"telemetry.overhead_pct", "%"},
	}...)
}()

// cacheKinds are the artifact kinds runner.Artifacts counts.
var cacheKinds = []string{"program", "trace", "prep", "result"}

// endToEndSpecs lists every end-to-end metric an untraced run prints.
var endToEndSpecs = []layerSpec{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"rtt_p50_ms", "ms"},
	{"rtt_tail_ms", "ms"},
	{"req_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer fills o with the per-layer ledger: span totals and cache
// counters of the traced phase, runtime counters of the untraced one
// (tracing allocates), and the direct layer costs.
func perLayer(o *outcome, l *ledger, traced, plain *phase, d *directCosts, idealPct float64) {
	units := map[string]string{}
	for _, s := range layerSpecs {
		units[s.name] = s.unit
	}
	set := func(name string, v float64) {
		u, ok := units[name]
		if !ok {
			panic("perfbench: per-layer metric " + name + " has no spec")
		}
		o.metrics[name] = metric{v, u}
	}
	ops := float64(traced.ops)
	for _, s := range layerSpecs {
		switch {
		case s.unit == "ms":
			set(s.name, l.ms[s.name]/ops)
		default:
			set(s.name, l.n[s.name]/ops)
		}
	}
	set("trace.ns_per_instr", d.traceNsPerInstr)
	set("ideal.ns_per_instr", d.idealNsPerInstr)
	set("ideal.cpu_pct", idealPct)
	for _, m := range directMachines {
		set("ooo.ns_per_cycle."+m.String(), d.nsPerCycle[m.String()])
		set("ooo.cycles."+m.String(), d.cycles[m.String()])
	}
	for _, st := range stageNames {
		set("ooo.stage."+st+"_pct", d.stagePct[st])
	}
	cs := traced.cache
	hits := []uint64{cs.ProgramHits, cs.TraceHits, cs.PrepHits, cs.ResultHits}
	misses := []uint64{cs.ProgramMisses, cs.TraceMisses, cs.PrepMisses, cs.ResultMisses}
	for i, k := range cacheKinds {
		set("runner.hits."+k, float64(hits[i])/ops)
		set("runner.misses."+k, float64(misses[i])/ops)
	}
	jobTail, jobPct := tailPct(l.jobMs)
	set("runner.job_p50_ms", median(l.jobMs))
	set("runner.job_tail_ms", jobTail)
	set("runner.worker_idle_s", l.idleS()/ops)
	set("api.overhead_ms", (l.apiMs-l.poolMs-l.mergeMs)/ops)
	set("exp.merge_ms", l.mergeMs/ops)
	qTail, qPct := tailPct(l.queue)
	set("serve.queue_wait_p50_ms", median(l.queue))
	set("serve.queue_wait_tail_ms", qTail)
	var httpMs []float64
	for _, r := range traced.requests {
		if in, ok := l.served[r.job]; ok && r.ok {
			httpMs = append(httpMs, r.rttMs-in)
		}
	}
	set("serve.http_ms", median(httpMs))
	set("serve.rejected", float64(traced.rejected))
	pops := float64(plain.ops)
	set("runtime.alloc_mb", plain.rt.allocMB/pops)
	set("runtime.gc_cycles", float64(plain.rt.gcCycles)/pops)
	set("runtime.gc_cpu_s", plain.rt.gcCPU/pops)
	set("telemetry.overhead_pct", 0)

	o.note("per-layer totals are per operation over %d traced operations; runtime.* per operation over %d untraced ones", traced.ops, plain.ops)
	o.note("runner.job_tail_ms is p%.1f of %d jobs; serve.queue_wait_tail_ms is p%.1f of %d sweeps", jobPct, len(l.jobMs), qPct, len(l.queue))
	if l.capacityMs > 0 {
		o.note("pool capacity %.1f ms = job layers %.1f ms + idle %.1f ms (gap %.3f%%)",
			l.capacityMs, l.jobLayersMs(), l.idleS()*1e3, 100*(l.jobLayersMs()+l.idleS()*1e3-l.capacityMs)/l.capacityMs)
	}
}
