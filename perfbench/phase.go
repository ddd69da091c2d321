package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cisim/internal/runner"
	"cisim/internal/telemetry"
)

// phase is what one timed phase measured. An operation is one sweep
// request: a whole sweep through api.Run on the sweep workloads, one
// HTTP round trip on serve-mixed.
type phase struct {
	ops                         int
	attempted, failed, rejected int
	rtt                         []float64 // ms per operation
	sweep                       []float64 // s per api.Run (sweep workloads)
	cpu                         []float64 // CPU s per operation (sweep workloads)
	setups                      []float64 // s per per-operation set-up (sweep-cold)
	wall                        float64   // s the phase took
	cpuTotal                    float64   // user+sys CPU s of the phase
	peakRSSMB                   float64
	rt                          runtimeDelta      // summed over operations
	cache                       runner.CacheStats // runner.Artifacts counters over the operations
	requests                    []request         // serve-mixed round trips
	serverSpans                 [][]telemetry.Record
}

// endToEnd fills o with the end-to-end metrics of an untraced phase.
func endToEnd(o *outcome, p *phase, setups []float64, nexps int) {
	tail, pct := tailPct(p.rtt)
	var sweepS, cpuS, reqPerS float64
	if len(p.sweep) > 0 {
		// Sweep workloads: one operation is a whole sweep.
		sweepS = median(p.sweep)
		cpuS = median(p.cpu)
		reqPerS = float64(p.ops) / (sum(p.rtt) / 1e3)
	} else {
		// serve-mixed: the time to get one result of every experiment
		// back from the daemon, at the closed loop's throughput.
		reqPerS = float64(p.ops) / p.wall
		sweepS = float64(nexps) / reqPerS
		cpuS = p.cpuTotal / float64(p.ops)
	}
	o.metrics["setup_s"] = metric{median(setups), "s"}
	o.metrics["sweep_s"] = metric{sweepS, "s"}
	o.metrics["rtt_p50_ms"] = metric{median(p.rtt), "ms"}
	o.metrics["rtt_tail_ms"] = metric{tail, "ms"}
	o.metrics["req_per_s"] = metric{reqPerS, "1/s"}
	o.metrics["cpu_s"] = metric{cpuS, "s"}
	o.metrics["peak_rss_mb"] = metric{p.peakRSSMB, "MB"}
	failedFrac := 0.0
	if o.attempted > 0 {
		failedFrac = float64(o.failed) / float64(o.attempted)
	}
	o.note("failed_frac %g (failed %d of %d attempted checks)", failedFrac, o.failed, o.attempted)
	o.note("rtt_tail_ms is p%.1f of rtt_n=%d operations (%s)", pct, len(p.rtt), tailRule(len(p.rtt)))
	if len(p.sweep) > 0 {
		o.note("per-sweep wall s %.3f; per-sweep CPU s %.3f", p.sweep, p.cpu)
	}
	o.note("setup_s is the median of %d set-ups; rejected %d", len(setups), p.rejected)
	o.note("runtime per op: alloc %.1f MB, %d GC cycles, %.3f GC CPU s",
		p.rt.allocMB/float64(p.ops), int(float64(p.rt.gcCycles)/float64(p.ops)), p.rt.gcCPU/float64(p.ops))
}

func tailRule(n int) string {
	if n < 21 {
		return "too few for a percentile above the median to leave ten samples beyond it: the median"
	}
	return "the highest percentile with ten samples beyond it"
}

// tailPct returns the highest percentile of xs that has at least ten
// samples beyond it, and that percentile. Below 21 samples no
// percentile above the median qualifies, and it returns the median.
func tailPct(xs []float64) (float64, float64) {
	if len(xs) < 21 {
		return median(xs), 50
	}
	s := sorted(xs)
	n := len(s)
	k := n - 11 // exactly ten samples lie above s[k]
	return s[k], 100 * float64(k+1) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuSeconds returns the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's
// RSS high-water mark, so the next peakRSSMB covers only what follows.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.WriteString("5")
	f.Close()
}

// peakRSSMB reads the RSS high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	v, _ := procStatusKB("VmHWM:")
	return float64(v) / 1024
}

func procStatusKB(field string) (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s not in /proc/self/status", field)
}

// cpuModel reads the CPU model name, "unknown" where /proc/cpuinfo has
// none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runtimeDelta is the Go runtime's work over an interval.
type runtimeDelta struct {
	allocMB  float64
	gcCycles uint64
	gcCPU    float64
}

func (d *runtimeDelta) add(o runtimeDelta) {
	d.allocMB += o.allocMB
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// runtimeMark is a runtime/metrics snapshot; since subtracts two.
type runtimeMark [3]metrics.Sample

func markRuntime() runtimeMark {
	var m runtimeMark
	for i, n := range runtimeSamples {
		m[i].Name = n
	}
	metrics.Read(m[:])
	return m
}

func (m runtimeMark) since(prev runtimeMark) runtimeDelta {
	u := func(s metrics.Sample) uint64 {
		if s.Value.Kind() == metrics.KindUint64 {
			return s.Value.Uint64()
		}
		return 0
	}
	f := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeDelta{
		allocMB:  float64(u(m[0])-u(prev[0])) / (1 << 20),
		gcCycles: u(m[1]) - u(prev[1]),
		gcCPU:    f(m[2]) - f(prev[2]),
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
