// Package api is cisim's embeddable library boundary: a versioned
// request/result schema for simulation sweeps plus the engine that
// executes a request on the runner pool. The CLI (`cisim run`) and the
// HTTP daemon (`cisim serve`, internal/serve) are both thin frontends
// over this package, so a sweep submitted over HTTP and the same sweep
// run from the command line go through one code path and produce
// byte-identical result JSON.
//
// Everything that crosses a process boundary is versioned and pinned by
// a golden test (testdata/api_schema.json): the sweep request, the
// client-facing job status enum, job info, the health and version
// responses, and the error envelope. Bump Version when the request or
// result encoding changes incompatibly; old clients then get a clean
// "unsupported schema version" error instead of garbage.
package api

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"cisim/internal/exp"
	"cisim/internal/workloads"
)

// Version is the request/result schema version this build speaks. A
// SweepRequest must carry it in its "v" field; the daemon serves its
// endpoints under the matching "/v1/" prefix.
const Version = 1

// SweepRequest is a versioned sweep submission: which experiments to
// run, at what scale, and under what resilience budget. It is exactly
// the surface `cisim run` exposes as flags, validated with the same
// machinery (the experiment and workload registries), so every
// diagnostic reads the same over HTTP and on the command line.
type SweepRequest struct {
	// V is the schema version; must equal Version.
	V int `json:"v"`
	// Experiments is a list of experiment ids (fig5, table2, ...) or the
	// single element "all" for every experiment in paper order.
	Experiments []string `json:"experiments"`
	// Workloads optionally names the workloads the sweep expects; each
	// must exist, and v1 requires the full set (experiments merge one
	// partial per workload, so partial selection is unsupported).
	Workloads []string `json:"workloads,omitempty"`
	// Quick runs the smaller inputs (noisier, much faster).
	Quick bool `json:"quick,omitempty"`
	// Metrics collects deterministic per-workload metrics snapshots;
	// they ride in the result JSON and as metrics events.
	Metrics bool `json:"metrics,omitempty"`
	// Jobs bounds concurrent (experiment, workload) jobs; 0 means
	// GOMAXPROCS. Output is identical at any value.
	Jobs int `json:"jobs,omitempty"`
	// TimeoutMs is the per-job deadline in milliseconds (0 = none),
	// enforced by the runner's watchdog exactly as `run -timeout`.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Retries re-runs a transiently-failed job up to N times.
	Retries int `json:"retries,omitempty"`
}

// Timeout converts TimeoutMs to the pool's deadline duration.
func (r *SweepRequest) Timeout() time.Duration {
	return time.Duration(r.TimeoutMs) * time.Millisecond
}

// Validate checks the request against this build's schema version and
// registries. It is the single validation path for both frontends.
func (r *SweepRequest) Validate() error {
	if r.V != Version {
		return fmt.Errorf("sweep request: unsupported schema version %d (this build speaks v%d)", r.V, Version)
	}
	if len(r.Experiments) == 0 {
		return fmt.Errorf("sweep request: no experiments given (use ids like \"fig5\" or the single element \"all\")")
	}
	if _, err := exp.Resolve(r.Experiments); err != nil {
		return err
	}
	if len(r.Workloads) > 0 {
		named := map[string]bool{}
		for _, name := range r.Workloads {
			if _, ok := workloads.Get(name); !ok {
				return fmt.Errorf("unknown workload %q (try 'cisim list')", name)
			}
			named[name] = true
		}
		all := workloads.All()
		if len(named) != len(all) {
			return fmt.Errorf("sweep request: v%d sweeps run every workload (%d named, %d exist); partial selection is unsupported", Version, len(named), len(all))
		}
	}
	if r.Jobs < 0 {
		return fmt.Errorf("sweep request: jobs must be >= 0")
	}
	if r.TimeoutMs < 0 {
		return fmt.Errorf("sweep request: timeout_ms must be >= 0")
	}
	if r.Retries < 0 {
		return fmt.Errorf("sweep request: retries must be >= 0")
	}
	return nil
}

// Status is the client-facing lifecycle of a submitted sweep. It is a
// small fixed taxonomy — deliberately distinct from log levels and from
// the run-event vocabulary — so dashboards and retry loops can switch on
// it without parsing event streams.
type Status string

const (
	// StatusQueued: accepted and waiting in the bounded queue.
	StatusQueued Status = "queued"
	// StatusRunning: executing on the runner pool.
	StatusRunning Status = "running"
	// StatusDone: completed; the result is retrievable.
	StatusDone Status = "done"
	// StatusFailed: completed with at least one permanent failure.
	StatusFailed Status = "failed"
	// StatusCancelled: cancelled by the client or a server drain before
	// completion; in-flight jobs were drained, not killed.
	StatusCancelled Status = "cancelled"
)

// Statuses returns every status value, for schema pinning and clients
// that enumerate the taxonomy.
func Statuses() []Status {
	return []Status{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled}
}

// Terminal reports whether a job in this status will never change again.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobInfo is the serve API's view of one submitted sweep.
type JobInfo struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	// QueuePos is the job's 1-based queue position at submission.
	QueuePos int `json:"queue_pos,omitempty"`
	// Request echoes the validated request the job will run.
	Request *SweepRequest `json:"request,omitempty"`
	// Error explains failed and cancelled statuses.
	Error string `json:"error,omitempty"`
	// Ms is the execution wall clock, stamped once terminal.
	Ms float64 `json:"ms,omitempty"`
	// Instrs is the number of instructions actually simulated
	// (artifact-cache hits contribute zero).
	Instrs uint64 `json:"instrs,omitempty"`
}

// JobList is the response of the job-listing endpoint, in submission
// order.
type JobList struct {
	Jobs []JobInfo `json:"jobs"`
}

// ErrorResponse is the JSON error envelope every non-2xx serve response
// carries.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Health is the liveness/readiness snapshot served at /healthz.
type Health struct {
	// Status is "serving", or "draining" once shutdown began.
	Status  string `json:"status"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	// Completed counts terminal jobs (done, failed, cancelled),
	// including those whose result and event log were already dropped
	// by the daemon's bounded retention.
	Completed int `json:"completed"`
	// Store reports persistent artifact store activity; absent when the
	// daemon runs without -cache-dir.
	Store *StoreHealth `json:"store,omitempty"`
}

// StoreHealth is this process's view of its persistent artifact store
// (-cache-dir): session counters since the daemon started, so operators
// can watch cache effectiveness without scraping event streams.
type StoreHealth struct {
	Dir          string `json:"dir"`
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Puts         uint64 `json:"puts"`
	Heals        uint64 `json:"heals"`
	Evictions    uint64 `json:"evictions"`
	BytesRead    int64  `json:"bytes_read"`
	BytesWritten int64  `json:"bytes_written"`
}

// VersionInfo identifies a build: module, version, toolchain, VCS state,
// and the API schema version it speaks. Served at /version and printed
// by `cisim version`.
type VersionInfo struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
	API       int    `json:"api"`
}

// Build reads the running binary's build information. It degrades
// gracefully when built without module info (e.g. some test binaries):
// the fields fall back to the compiled-in defaults.
func Build() VersionInfo {
	v := VersionInfo{Module: "cisim", Version: "(devel)", GoVersion: runtime.Version(), API: Version}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	if bi.Main.Path != "" {
		v.Module = bi.Main.Path
	}
	if bi.Main.Version != "" {
		v.Version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		v.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			v.Revision = s.Value
		case "vcs.modified":
			v.Modified = s.Value == "true"
		}
	}
	return v
}
