package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"cisim/internal/ideal"
	"cisim/internal/ooo"
	"cisim/internal/trace"
	"cisim/internal/workloads"
)

// directWindow is the window size of the direct ideal and detailed runs.
const directWindow = 256

// stageNames lists the detailed core's stages in step's call order.
var stageNames = []string{"retire", "refresh", "goldsync", "complete", "recovery", "issue", "dispatch", "fetch"}

// directCosts is each simulator layer's unit cost, timed by calling the
// layer directly on the five programs, independent of the workload.
type directCosts struct {
	traceNsPerInstr float64            // trace.Generate per correct-path instruction
	idealNsPerInstr float64            // ideal.RunPrepared (six models) per retired instruction
	nsPerCycle      map[string]float64 // ooo.RunPrepared per simulated cycle, by machine
	cycles          map[string]float64 // simulated cycles over the five programs, by machine
	stagePct        map[string]float64 // CPU-profile share of each stage under step
}

// directMachines are the detailed machines timed directly.
var directMachines = []ooo.Machine{ooo.Base, ooo.CI}

// measureDirect times the layers on the five programs at their public
// default size, Workload.DefaultIters divided by div (1 in a real run;
// the self-tests shrink it).
func measureDirect(div int) (*directCosts, error) {
	d := &directCosts{nsPerCycle: map[string]float64{}, cycles: map[string]float64{}, stagePct: map[string]float64{}}
	var genNs, idealNs float64
	var instrs, retired uint64
	simNs := map[string]float64{}
	counts := map[string]int64{}
	var underStep int64
	for _, w := range workloads.All() {
		p, err := w.Assemble(max(w.DefaultIters/div, 1))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		tr, err := trace.Generate(p, trace.Options{})
		genNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		instrs += uint64(len(tr.Entries))
		pr := ideal.Prepare(tr)
		for _, m := range ideal.Models() {
			t0 := time.Now()
			r, err := ideal.RunPrepared(pr, ideal.Config{Model: m, WindowSize: directWindow})
			idealNs += float64(time.Since(t0).Nanoseconds())
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", w.Name, m, err)
			}
			retired += r.Retired
		}

		pre, err := ooo.Prepare(p, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		for _, mach := range directMachines {
			t0 := time.Now()
			r, err := ooo.RunPrepared(p, ooo.Config{Machine: mach, WindowSize: directWindow}, pre)
			simNs[mach.String()] += float64(time.Since(t0).Nanoseconds())
			if err != nil {
				pprof.StopCPUProfile()
				return nil, fmt.Errorf("%s %v: %w", w.Name, mach, err)
			}
			d.cycles[mach.String()] += float64(r.Stats.Cycles)
		}
		pprof.StopCPUProfile()
		stacks, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		underStep += stageCounts(stacks, counts)
	}
	d.traceNsPerInstr = genNs / float64(instrs)
	d.idealNsPerInstr = idealNs / float64(retired)
	for _, mach := range directMachines {
		m := mach.String()
		d.nsPerCycle[m] = simNs[m] / d.cycles[m]
	}
	for _, st := range stageNames {
		if underStep > 0 {
			d.stagePct[st] = 100 * float64(counts[st]) / float64(underStep)
		}
	}
	return d, nil
}
