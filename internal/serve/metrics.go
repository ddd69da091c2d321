package serve

// Prometheus-style exposition for the daemon: GET /metrics renders the
// harness metrics the ISSUE's observability story needs — queue depth,
// in-flight sweeps, sweep/job duration histograms, queue-wait, retry
// and fault counters, and the persistent store's session counters with
// a hit-ratio gauge. Everything rides internal/metrics' dependency-free
// Prom registry; scrape-time functions read Server state under s.mu
// (lock order: Prom.mu -> Server.mu, and nothing observes Prom metrics
// while holding Server.mu — see runJob).

import (
	"net/http"

	"cisim/internal/api"
	"cisim/internal/metrics"
	"cisim/internal/runner"
)

// promMetrics is the Server's exposition registry and the concrete
// metrics observed by the dispatcher and the event-stream tap. All
// fields are set once in newPromMetrics and never mutated after.
type promMetrics struct {
	reg *metrics.Prom

	sweepsTotal map[api.Status]*metrics.PromCounter
	sweepDur    *metrics.PromHistogram
	queueWait   *metrics.PromHistogram
	jobDur      *metrics.PromHistogram
	retries     *metrics.PromCounter
	stalls      *metrics.PromCounter
	failures    *metrics.PromCounter
}

// newPromMetrics builds the registry and wires the scrape-time readers
// against the server's live state.
func newPromMetrics(s *Server) *promMetrics {
	reg := metrics.NewProm()
	m := &promMetrics{
		reg: reg,
		sweepsTotal: map[api.Status]*metrics.PromCounter{
			api.StatusDone: reg.Counter("cisim_sweeps_total",
				"Sweeps that reached a terminal status.", map[string]string{"status": string(api.StatusDone)}),
			api.StatusFailed: reg.Counter("cisim_sweeps_total",
				"Sweeps that reached a terminal status.", map[string]string{"status": string(api.StatusFailed)}),
			api.StatusCancelled: reg.Counter("cisim_sweeps_total",
				"Sweeps that reached a terminal status.", map[string]string{"status": string(api.StatusCancelled)}),
		},
		sweepDur: reg.Histogram("cisim_sweep_duration_seconds",
			"Wall time of one sweep, submission request excluded.", metrics.DurationBounds),
		queueWait: reg.Histogram("cisim_sweep_queue_wait_seconds",
			"Time a sweep waited between submission and dispatch.", metrics.DurationBounds),
		jobDur: reg.Histogram("cisim_job_duration_seconds",
			"Wall time of one (experiment, workload) job attempt.", metrics.DurationBounds),
		retries: reg.Counter("cisim_job_retries_total",
			"Transiently-failed job attempts that were retried.", nil),
		stalls: reg.Counter("cisim_job_stalls_total",
			"Jobs that outlived their deadline (job_stall events).", nil),
		failures: reg.Counter("cisim_job_failures_total",
			"Job attempts that ended with an error.", nil),
	}
	reg.GaugeFunc("cisim_queue_depth", "Sweeps queued and waiting for dispatch.",
		func() float64 { return float64(s.countStatus(api.StatusQueued)) })
	reg.GaugeFunc("cisim_inflight_sweeps", "Sweeps currently executing (0 or 1; dispatch is serial).",
		func() float64 { return float64(s.countStatus(api.StatusRunning)) })

	if st := s.cfg.Store; st != nil {
		counter := func(name, help string, read func() float64) {
			reg.CounterFunc(name, help, nil, read)
		}
		counter("cisim_store_hits_total", "Persistent-store blob hits this session.",
			func() float64 { return float64(st.Session().Hits) })
		counter("cisim_store_misses_total", "Persistent-store lookups that missed this session.",
			func() float64 { return float64(st.Session().Misses) })
		counter("cisim_store_puts_total", "Persistent-store blobs written this session.",
			func() float64 { return float64(st.Session().Puts) })
		counter("cisim_store_evictions_total", "Persistent-store evictions this session.",
			func() float64 { return float64(st.Session().Evictions) })
		counter("cisim_store_quarantines_total", "Persistent-store blobs quarantined this session.",
			func() float64 { return float64(st.Session().Quarantines) })
		counter("cisim_store_bytes_read_total", "Bytes read from the persistent store this session.",
			func() float64 { return float64(st.Session().BytesRead) })
		counter("cisim_store_bytes_written_total", "Bytes written to the persistent store this session.",
			func() float64 { return float64(st.Session().BytesWritten) })
		reg.GaugeFunc("cisim_store_hit_ratio", "Session hits / (hits + misses), 0 when idle.",
			func() float64 {
				c := st.Session()
				if c.Hits+c.Misses == 0 {
					return 0
				}
				return float64(c.Hits) / float64(c.Hits+c.Misses)
			})
	}
	return m
}

// countStatus counts jobs in one status under the server lock.
func (s *Server) countStatus(want api.Status) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.status == want {
			n++
		}
	}
	return n
}

// metricsSink taps a sweep's run-event stream for exposition metrics on
// the way to the client-facing event log. Emit runs on pool worker
// goroutines; every metric it touches is concurrency-safe and no Server
// lock is taken.
type metricsSink struct {
	inner runner.Sink
	m     *promMetrics
}

func (t *metricsSink) Emit(e runner.Event) {
	switch e.Ev {
	case "job_end":
		t.m.jobDur.Observe(e.Ms / 1000)
		if e.Err != "" {
			t.m.failures.Inc()
		}
	case "job_retry":
		t.m.retries.Inc()
	case "job_stall":
		t.m.stalls.Inc()
	}
	t.inner.Emit(e)
}

// handleMetrics renders the exposition text. The content type is the
// Prometheus text format's versioned one.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.prom.reg.Write(w)
}
