// Command benchdiff compares `go test -bench` output against a committed
// baseline, in the spirit of benchstat (which, like everything else under
// x/perf, is unavailable offline). It reads benchmark output on stdin,
// takes the median over repeated runs (-count=N), and either records the
// result as a new baseline (-write) or prints a comparison table against
// an existing one.
//
//	go test -bench=. -count=3 . | benchdiff -write BENCH_10.json
//	go test -bench=. -count=3 . | benchdiff -baseline BENCH_10.json
//
// `make bench-baseline` and `make benchdiff` run exactly these over the
// headline benchmarks.
//
// The comparison is advisory by default: deltas beyond the threshold are
// flagged loudly but the exit status stays 0, because these are wall-clock
// measurements on shared CI machines and a hard gate on ±10% noise would
// train everyone to ignore it. -strict turns time regressions beyond the
// threshold into exit status 1. Alloc counts are deterministic, so -strict
// also fails on any allocs/op increase at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark record (BENCH_10.json).
type Baseline struct {
	// Note documents the machine and toolchain the baseline was taken on;
	// comparisons on other machines are indicative, not precise.
	Note       string               `json:"note,omitempty"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// Benchmark is the median of one benchmark's runs.
type Benchmark struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// sample accumulates repeated runs of one benchmark.
type sample struct {
	ns, bytes, allocs []float64
}

func main() {
	var (
		write     = flag.String("write", "", "record medians as a new baseline at this path")
		baseline  = flag.String("baseline", "", "compare against the baseline at this path")
		note      = flag.String("note", "", "with -write: provenance note (machine, toolchain)")
		threshold = flag.Float64("threshold", 10, "advisory time-delta threshold in percent")
		strict    = flag.Bool("strict", false, "exit 1 on time regressions beyond the threshold or any allocs/op increase")
	)
	flag.Parse()
	if (*write == "") == (*baseline == "") {
		fmt.Fprintln(os.Stderr, "benchdiff: exactly one of -write or -baseline is required")
		os.Exit(2)
	}

	samples, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark results on stdin")
		os.Exit(2)
	}
	cur := medians(samples)

	if *write != "" {
		out := Baseline{Note: *note, Benchmarks: cur}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*write, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(cur), *write)
		return
	}

	buf, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *baseline, err)
		os.Exit(2)
	}
	if base.Note != "" {
		fmt.Printf("baseline: %s\n\n", base.Note)
	}
	failed := compare(os.Stdout, base.Benchmarks, cur, *threshold)
	if failed && *strict {
		os.Exit(1)
	}
}

// parseBench reads `go test -bench` output, collecting every run of every
// benchmark. Lines look like
//
//	BenchmarkFoo/sub-8   3   123456 ns/op   9876 B/op   12 allocs/op
//
// possibly with extra ReportMetric pairs, which are ignored.
func parseBench(r io.Reader) (map[string]*sample, error) {
	out := map[string]*sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := trimProcs(f[0])
		s := out[name]
		if s == nil {
			s = &sample{}
			out[name] = s
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
	}
	return out, sc.Err()
}

// trimProcs strips the trailing -GOMAXPROCS from a benchmark name.
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func medians(samples map[string]*sample) map[string]Benchmark {
	out := make(map[string]Benchmark, len(samples))
	for name, s := range samples {
		if len(s.ns) == 0 {
			continue
		}
		out[name] = Benchmark{
			NsPerOp:     median(s.ns),
			BytesPerOp:  median(s.bytes),
			AllocsPerOp: median(s.allocs),
		}
	}
	return out
}

// median returns the middle value (mean of the middle two for even
// counts), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare prints the benchstat-style table — time, bytes, and allocation
// columns with per-benchmark deltas, then the geomean of the time ratios
// over every benchmark present on both sides — and reports whether any
// benchmark regressed (time beyond the threshold, or allocs at all).
func compare(w io.Writer, base, cur map[string]Benchmark, threshold float64) bool {
	names := make([]string, 0, len(cur))
	//lint:ignore detrange keys are sorted immediately below
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	fmt.Fprintf(w, "%-48s %12s %12s %9s %11s %11s %9s %9s %9s %9s\n",
		"benchmark", "old time/op", "new time/op", "delta",
		"old B/op", "new B/op", "delta",
		"old allocs", "new allocs", "delta")
	var logSum float64
	var ratios int
	for _, name := range names {
		c := cur[name]
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "%-48s %12s %12s %9s %11s %11s %9s %9s %9s %9s\n",
				name, "-", fmtNs(c.NsPerOp), "new",
				"-", fmtBytes(c.BytesPerOp), "new",
				"-", fmtCount(c.AllocsPerOp), "new")
			continue
		}
		td := pctDelta(b.NsPerOp, c.NsPerOp)
		bd := pctDelta(b.BytesPerOp, c.BytesPerOp)
		ad := pctDelta(b.AllocsPerOp, c.AllocsPerOp)
		if b.NsPerOp > 0 && c.NsPerOp > 0 {
			logSum += math.Log(c.NsPerOp / b.NsPerOp)
			ratios++
		}
		mark := ""
		if td > threshold {
			mark = "  !! time regression beyond advisory threshold"
			failed = true
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			mark += "  !! allocs/op increased"
			failed = true
		}
		fmt.Fprintf(w, "%-48s %12s %12s %+8.1f%% %11s %11s %+8.1f%% %9s %9s %+8.1f%%%s\n",
			name, fmtNs(b.NsPerOp), fmtNs(c.NsPerOp), td,
			fmtBytes(b.BytesPerOp), fmtBytes(c.BytesPerOp), bd,
			fmtCount(b.AllocsPerOp), fmtCount(c.AllocsPerOp), ad, mark)
	}
	var missing []string
	//lint:ignore detrange keys are sorted immediately below
	for name := range base {
		if _, ok := cur[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "%-48s   (in baseline, not measured)\n", name)
	}
	if ratios > 0 {
		g := math.Exp(logSum / float64(ratios))
		fmt.Fprintf(w, "\ngeomean time ratio: %.3fx (%+.1f%%) over %d benchmarks\n",
			g, (g-1)*100, ratios)
	}
	return failed
}

func pctDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func fmtBytes(n float64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fGB", n/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fMB", n/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fkB", n/1e3)
	default:
		return fmt.Sprintf("%.0fB", n)
	}
}

func fmtCount(n float64) string {
	switch {
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", n/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", n/1e3)
	default:
		return fmt.Sprintf("%.0f", n)
	}
}
