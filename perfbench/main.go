// Command perfbench is cisim's repository benchmark. It is one process
// that drives the program's public entry points in-process — api.Run,
// the serve daemon behind httptest, store.Open, runner.Artifacts and
// exp.WriteJSON — through one workload, checks every result against a
// recorded digest, and prints every metric with its unit, ending with a
// one-line JSON summary:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 12 --trace 0
//
// Workloads (NOTES.md gives the reasons and every metric's definition):
//
//	sweep-cold   the full quick sweep with an empty in-memory cache,
//	             writing into a fresh empty persistent store
//	sweep-warm   the same sweep with a fresh in-memory cache over the
//	             store that set-up filled (the -cache-dir re-run loop)
//	serve-mixed  a closed loop of nproc clients, each submitting
//	             single-experiment quick sweeps to the daemon
//
// With --trace 0 it measures the end-to-end metrics with tracing off.
// With --trace 1 it runs the workload half untraced and half traced
// (spans plus a CPU profile), times direct calls into each simulator
// layer, and prints the per-layer ledger.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"cisim/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit, as the summary line
// carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs (orders serve requests)")
	seconds := fs.Float64("seconds", 10, "wall seconds one timed phase measures")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer ledger")
	out := fs.String("out", ".bench_build", "directory for scratch stores and the span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	ids := exp.IDs()
	// cmd/cisim runs with GOGC=600 unless the environment overrides it;
	// the benchmark measures what users get.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(600)
	}
	b, err := newBench(config{
		workload: *workload, seed: *seed, seconds: *seconds,
		traced: *traceFlag == 1, out: *out, exps: ids, digests: recordedDigests(), directDiv: 1,
	})
	if err != nil {
		return err
	}
	defer b.close()

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d exps=%d\n",
		*workload, *seed, *seconds, *traceFlag, len(ids))
	fmt.Fprintf(stdout, "# host %s\n", hostLine())
	o, err := b.run()
	if err != nil {
		return err
	}
	return report(stdout, o)
}

// hostLine records what a comparison across machines must match: core
// count, CPU model, toolchain and GC setting.
func hostLine() string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "600"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s gogc=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), gogc, runtime.GOOS, runtime.GOARCH)
}

// report prints one line per metric, the notes, and the summary line.
func report(w io.Writer, o *outcome) error {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	s := summary{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
