// Package serve is the cisim HTTP daemon: simulation-as-a-service over
// the embeddable sweep engine (internal/api). It accepts versioned
// sweep requests, enqueues them on a bounded queue in front of the
// existing runner pool, and exposes job submission, status, result
// retrieval, live event streaming, and cancellation.
//
// Endpoints (all JSON; non-2xx responses carry api.ErrorResponse):
//
//	POST   /v1/sweeps             submit an api.SweepRequest -> 202 api.JobInfo
//	                              full queue -> 429 + Retry-After
//	                              draining   -> 503 + Retry-After
//	GET    /v1/sweeps             list jobs in submission order (api.JobList)
//	GET    /v1/sweeps/{id}        one job's api.JobInfo
//	GET    /v1/sweeps/{id}/result result JSON, byte-identical to
//	                              `cisim run -json` for the same request;
//	                              410 once the sweep is compacted
//	GET    /v1/sweeps/{id}/events live run-event stream: chunked JSONL by
//	                              default, SSE under Accept: text/event-stream;
//	                              late subscribers replay from the first event;
//	                              410 once the sweep is compacted
//	DELETE /v1/sweeps/{id}        cancel: queued jobs finish instantly,
//	                              running jobs drain in-flight work
//	GET    /healthz               api.Health (serving/draining + job counts)
//	GET    /version               api.VersionInfo
//
// Sweeps execute strictly one at a time on a single dispatcher
// goroutine — parallelism lives inside a sweep (the runner pool), and
// serializing sweeps keeps the process-global artifact cache's event
// attribution unambiguous. The bounded queue is the backpressure
// boundary: when it is full the daemon says so immediately with 429 and
// a Retry-After hint instead of absorbing unbounded work.
//
// Retention is bounded: the newest retainSweeps terminal sweeps keep
// their full record (results and event log). Older ones are compacted to
// a tombstone — the final JobInfo plus the span records — so status,
// listings, /healthz counts and /spans keep answering for every sweep
// while the daemon's heap stays flat over an unbounded stream of
// requests.
//
// Shutdown is the SIGINT drain path one level up: queued sweeps are
// cancelled, the running sweep's context is cancelled so the pool stops
// dispatching and drains in-flight jobs (journaling them as usual), and
// the dispatcher exits. A journal written by a drained sweep replays
// cleanly — drain can tear nothing.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cisim/internal/api"
	"cisim/internal/exp"
	"cisim/internal/runner"
	"cisim/internal/store"
	"cisim/internal/telemetry"
)

// Config parameterizes a Server.
type Config struct {
	// Queue bounds the number of sweeps waiting to run; a full queue
	// answers 429. 0 means DefaultQueue.
	Queue int
	// Jobs is the default runner-pool width for sweeps that do not set
	// their own (0 = GOMAXPROCS).
	Jobs int
	// JournalDir, when set, gives every sweep a crash-consistent journal
	// at <dir>/<job id>.journal, so a drained or crashed sweep's
	// completed jobs survive for offline inspection or resume.
	JournalDir string
	// Store is the persistent artifact store the daemon's sweeps share
	// (already attached behind runner.Artifacts by the frontend); the
	// server only reads its counters for /healthz. Nil without
	// -cache-dir.
	Store *store.Store
	// SpansDir, when set, additionally writes every terminal sweep's
	// span records to <dir>/<job id>.spans.jsonl; the records are always
	// retrievable over GET /v1/sweeps/{id}/spans regardless.
	SpansDir string
}

// DefaultQueue is the queue depth used when Config.Queue is zero.
const DefaultQueue = 8

const (
	// retainSweeps is how many terminal sweeps keep their full record;
	// older ones are compacted to a tombstone. At about 15 KB a sweep
	// the full records stay under 4 MB.
	retainSweeps = 256
	// retryAfterSec is the Retry-After hint on a 429: one quick sweep is
	// typically a few seconds, so "try again shortly" is honest without
	// modeling queue drain rates.
	retryAfterSec = 2
	// maxRequestBytes bounds a submission body; a sweep request is a few
	// hundred bytes.
	maxRequestBytes = 1 << 20
)

// job is one submitted sweep and its lifecycle state. The id, request,
// and log are immutable after handleSubmit publishes the job; every
// mutable field is guarded by the owning Server's mu (verified by the
// lockguard analyzer via the annotations below).
type job struct {
	id  string
	req *api.SweepRequest
	log *eventLog
	// trace and parentSpan come from the submission's traceparent
	// header ("" when absent); submitted anchors queue-wait attribution.
	// All three are immutable after handleSubmit publishes the job.
	trace      string
	parentSpan string
	submitted  time.Time

	queuePos  int                // guarded by Server.mu
	status    api.Status         // guarded by Server.mu
	err       string             // guarded by Server.mu
	cancel    context.CancelFunc // guarded by Server.mu; non-nil only while running
	results   []exp.JSONResult   // guarded by Server.mu; set once done
	elapsedMs float64            // guarded by Server.mu
	instrs    uint64             // guarded by Server.mu
	spans     []byte             // guarded by Server.mu; span records as JSONL, set once terminal
	done      chan struct{}      // closed (under mu) on reaching a terminal status; receives need no lock
}

// tombstone is what is left of a compacted sweep: its final status
// snapshot and its span records. The results and the event log are
// dropped.
type tombstone struct {
	info  api.JobInfo
	spans []byte // JSONL
}

// Server is the daemon: an http.Handler plus the dispatcher that
// executes queued sweeps.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	prom *promMetrics // set once in New, before any request or sweep

	mu       sync.Mutex
	jobs     map[string]*job       // guarded by mu; sweeps with a full record
	tombs    map[string]*tombstone // guarded by mu; compacted sweeps
	finished []*job                // guarded by mu; terminal sweeps in jobs, oldest first
	order    []string              // guarded by mu; submission order, for deterministic listings
	queue    chan *job             // the channel itself is immutable; sends/len/cap happen under mu, receives on the dispatcher
	nextID   int                   // guarded by mu
	draining bool                  // guarded by mu

	baseCtx        context.Context
	cancelAll      context.CancelFunc
	dispatcherDone chan struct{}
}

// New builds a Server and starts its dispatcher. Stop it with Shutdown.
func New(cfg Config) *Server {
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:            cfg,
		jobs:           map[string]*job{},
		tombs:          map[string]*tombstone{},
		queue:          make(chan *job, cfg.Queue),
		baseCtx:        ctx,
		cancelAll:      cancel,
		dispatcherDone: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/sweeps/{id}/spans", s.handleSpans)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /version", s.handleVersion)
	s.mux = mux
	s.prom = newPromMetrics(s)
	go s.dispatch()
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown begins a graceful drain and waits for the dispatcher to
// finish, at most until ctx expires. Queued sweeps are cancelled; the
// running sweep's context is cancelled, which is the pool's SIGINT
// drain path — in-flight jobs complete (and are journaled), the rest
// are skipped. New submissions get 503. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, id := range s.order {
			if j := s.jobs[id]; j != nil && j.status == api.StatusQueued {
				s.finishLocked(j, api.StatusCancelled, "cancelled: server draining")
			}
		}
		// No submit can enqueue once draining is set (both hold mu), so
		// closing the queue here is safe and lets the dispatcher exit
		// after skipping the cancelled remainder.
		close(s.queue)
		s.cancelAll()
	}
	s.mu.Unlock()
	select {
	case <-s.dispatcherDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain incomplete: %w", ctx.Err())
	}
}

// finishLocked moves a job to a terminal status, compacting the oldest
// terminal sweep to a tombstone once more than retainSweeps keep their
// full record. Caller holds s.mu.
func (s *Server) finishLocked(j *job, st api.Status, errMsg string) {
	j.status = st
	j.err = errMsg
	j.cancel = nil
	j.log.Close()
	close(j.done)
	s.finished = append(s.finished, j)
	if len(s.finished) > retainSweeps {
		old := s.finished[0]
		s.finished[0] = nil
		s.finished = s.finished[1:]
		s.tombs[old.id] = &tombstone{info: s.infoLocked(old), spans: old.spans}
		delete(s.jobs, old.id)
	}
}

// dispatch executes queued sweeps strictly one at a time until the
// queue is closed by Shutdown.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	for j := range s.queue {
		s.mu.Lock()
		if j.status != api.StatusQueued { // cancelled while waiting
			s.mu.Unlock()
			continue
		}
		jctx, cancel := context.WithCancel(s.baseCtx)
		j.status = api.StatusRunning
		j.cancel = cancel
		s.mu.Unlock()
		s.runJob(jctx, j)
		cancel()
	}
}

// runJob executes one sweep through the shared engine and records its
// terminal state.
func (s *Server) runJob(ctx context.Context, j *job) {
	// The metrics tap sits in front of the client-facing event log, so
	// job durations, retries, and stalls feed /metrics as they happen.
	opts := api.RunOptions{Sink: &metricsSink{inner: runner.NewJSONLSink(j.log), m: s.prom}}
	if s.cfg.JournalDir != "" {
		path := filepath.Join(s.cfg.JournalDir, j.id+".journal")
		// Job ids are unique per process; a leftover file from a prior
		// daemon must not be replayed into this sweep.
		_ = os.Remove(path)
		if jrn, _, _, err := runner.OpenJournal(path); err == nil {
			opts.Journal = jrn
			defer jrn.Close()
		}
		// On error the sweep simply runs unjournaled, like the CLI when
		// its journal disk dies.
	}
	req := *j.req
	if req.Jobs == 0 {
		req.Jobs = s.cfg.Jobs
	}

	// Tracing is always on for daemon sweeps: one collector per sweep,
	// rooted at a serve:sweep span that adopts the client's trace and
	// parent when a traceparent header supplied them. Enabling the
	// process-global collector is safe because dispatch is serial — the
	// same discipline that keeps cache-event attribution unambiguous.
	trace := j.trace
	if trace == "" {
		trace = telemetry.TraceID("serve", j.id)
	}
	queueWait := time.Since(j.submitted)
	col := telemetry.NewCollector(trace)
	root := col.StartWith(j.parentSpan, "serve:sweep")
	root.Key = j.id
	root.QueueUs = telemetry.Us(queueWait)
	unbind := root.Bind()
	telemetry.Enable(col)

	start := time.Now()
	out, err := api.Run(ctx, &req, opts)
	elapsed := time.Since(start)

	telemetry.Disable()
	unbind()

	// Resolve the terminal state before touching any lock, so the span
	// can carry it and the prom observations can run unlocked after.
	final := api.StatusDone
	var msg string
	var results []exp.JSONResult
	var instrs uint64
	switch {
	case err != nil:
		final, msg = api.StatusFailed, err.Error()
	case out.Aborted:
		final, msg = api.StatusCancelled, "sweep cancelled before completion; completed jobs were journaled"
	default:
		instrs = out.Summary.Instrs
		var errs []string
		for _, oc := range out.Outcomes {
			if oc.Err != nil {
				errs = append(errs, oc.Err.Error())
			}
		}
		if len(errs) > 0 {
			final, msg = api.StatusFailed, strings.Join(errs, "; ")
		} else {
			results = out.JSONResults()
		}
	}
	if final != api.StatusDone {
		root.Err = msg
	}
	root.End()
	var spans bytes.Buffer
	_ = telemetry.WriteJSONL(&spans, col.Records())
	s.writeSpansFile(j.id, spans.Bytes())

	s.mu.Lock()
	j.elapsedMs = float64(elapsed.Milliseconds())
	j.instrs = instrs
	j.results = results
	j.spans = spans.Bytes()
	s.finishLocked(j, final, msg)
	s.mu.Unlock()

	// Exposition observations happen after the server lock is released:
	// a concurrent /metrics scrape holds Prom.mu while calling gauge
	// functions that take s.mu, so observing under s.mu would invert
	// that order.
	s.prom.sweepDur.Observe(elapsed.Seconds())
	s.prom.queueWait.Observe(queueWait.Seconds())
	if c := s.prom.sweepsTotal[final]; c != nil {
		c.Inc()
	}
}

// writeSpansFile persists one sweep's span JSONL under SpansDir;
// failures cost the artifact, never the sweep.
func (s *Server) writeSpansFile(id string, spans []byte) {
	if s.cfg.SpansDir == "" {
		return
	}
	_ = os.WriteFile(filepath.Join(s.cfg.SpansDir, id+".spans.jsonl"), spans, 0o644)
}

// infoLocked snapshots a job for clients. Caller holds s.mu.
func (s *Server) infoLocked(j *job) api.JobInfo {
	info := api.JobInfo{ID: j.id, Status: j.status, QueuePos: j.queuePos,
		Request: j.req, Error: j.err, Instrs: j.instrs}
	if j.status.Terminal() {
		info.Ms = j.elapsedMs
	}
	return info
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, api.ErrorResponse{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	// Unknown fields are rejected rather than ignored: a client speaking
	// a newer schema gets a clear 400, not silently dropped options.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parsing sweep request: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "10")
		writeErr(w, http.StatusServiceUnavailable, errors.New("server is draining and accepts no new sweeps"))
		return
	}
	j := &job{
		id:        fmt.Sprintf("s%06d", s.nextID+1),
		req:       &req,
		status:    api.StatusQueued,
		log:       newEventLog(),
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	// A well-formed traceparent header joins the client's trace: the
	// sweep's spans carry the client's trace ID and hang off its span.
	// A malformed header is ignored, never a 400 — propagation is an
	// optional courtesy, not part of the request contract.
	if trace, span, ok := telemetry.ParseTraceparent(r.Header.Get("traceparent")); ok {
		j.trace, j.parentSpan = trace, span
	}
	select {
	case s.queue <- j:
		s.nextID++
		j.queuePos = len(s.queue)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		info := s.infoLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, info)
	default:
		s.mu.Unlock()
		// Backpressure, not buffering: the queue is the contract. The
		// client owns the retry; Retry-After makes the hint explicit.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSec))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("sweep queue is full (depth %d); retry after %ds", cap(s.queue), retryAfterSec))
	}
}

// lookup resolves the {id} path value to a sweep with its full record
// or, once compacted, to its tombstone; on a miss it answers 404 and
// returns neither.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, *tombstone) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, t := s.jobs[id], s.tombs[id]
	s.mu.Unlock()
	if j == nil && t == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such sweep %q", id))
	}
	return j, t
}

// infoOfLocked snapshots the sweep id, whether compacted or not. Caller
// holds s.mu.
func (s *Server) infoOfLocked(id string) api.JobInfo {
	if j := s.jobs[id]; j != nil {
		return s.infoLocked(j)
	}
	return s.tombs[id].info
}

// writeGone answers 410 for a compacted sweep's dropped record, naming
// the journal that still holds its completed jobs when there is one.
func (s *Server) writeGone(w http.ResponseWriter, t *tombstone, what string) {
	msg := fmt.Sprintf("sweep %s is %s and its %s was dropped: the daemon keeps the newest %d finished sweeps in full",
		t.info.ID, t.info.Status, what, retainSweeps)
	if s.cfg.JournalDir != "" {
		msg += "; its completed jobs are in the journal " + filepath.Join(s.cfg.JournalDir, t.info.ID+".journal")
	}
	writeErr(w, http.StatusGone, errors.New(msg))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := api.JobList{Jobs: make([]api.JobInfo, 0, len(s.order))}
	for _, id := range s.order {
		list.Jobs = append(list.Jobs, s.infoOfLocked(id))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, t := s.lookup(w, r)
	if j == nil && t == nil {
		return
	}
	s.mu.Lock()
	info := s.infoOfLocked(r.PathValue("id"))
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, t := s.lookup(w, r)
	if t != nil {
		s.writeGone(w, t, "result")
		return
	}
	if j == nil {
		return
	}
	s.mu.Lock()
	st, errMsg, results := j.status, j.err, j.results
	s.mu.Unlock()
	switch st {
	case api.StatusDone:
		// exp.WriteJSON is the same serializer `cisim run -json` writes
		// stdout with, so this body is byte-identical to the CLI's.
		w.Header().Set("Content-Type", "application/json")
		_ = exp.WriteJSON(w, results)
	case api.StatusFailed, api.StatusCancelled:
		writeErr(w, http.StatusConflict, fmt.Errorf("sweep %s %s: %s", j.id, st, errMsg))
	default:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSec))
		writeErr(w, http.StatusConflict, fmt.Errorf("sweep %s is %s; no result yet", j.id, st))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, t := s.lookup(w, r)
	if t != nil {
		// Compacted sweeps are terminal: cancelling one is a no-op.
		writeJSON(w, http.StatusOK, t.info)
		return
	}
	if j == nil {
		return
	}
	s.mu.Lock()
	switch j.status {
	case api.StatusQueued:
		// The job object stays in the queue channel; the dispatcher
		// skips it by status.
		s.finishLocked(j, api.StatusCancelled, "cancelled by client while queued")
	case api.StatusRunning:
		// Reuse the drain path: cancel the sweep's context so the pool
		// stops dispatching and in-flight jobs complete. The status
		// flips to cancelled when the drain finishes.
		if j.cancel != nil {
			j.cancel()
		}
	}
	info := s.infoLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := api.Health{Status: "serving"}
	s.mu.Lock()
	if s.draining {
		h.Status = "draining"
	}
	h.Completed = len(s.tombs)
	for _, j := range s.jobs {
		switch j.status {
		case api.StatusQueued:
			h.Queued++
		case api.StatusRunning:
			h.Running++
		default:
			h.Completed++
		}
	}
	s.mu.Unlock()
	if st := s.cfg.Store; st != nil {
		h.Store = StoreHealth(st)
	}
	writeJSON(w, http.StatusOK, h)
}

// StoreHealth snapshots a store's session counters into the /healthz
// shape. Exported for the frontend's SIGTERM drain footer, which prints
// the same numbers the last /healthz probe would have shown.
func StoreHealth(st *store.Store) *api.StoreHealth {
	c := st.Session()
	return &api.StoreHealth{
		Dir:  st.Dir(),
		Hits: c.Hits, Misses: c.Misses, Puts: c.Puts,
		Heals: c.Quarantines, Evictions: c.Evictions,
		BytesRead: c.BytesRead, BytesWritten: c.BytesWritten,
	}
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Build())
}

// handleEvents streams a sweep's run events: every line already written
// (replay), then live lines as the engine emits them, until the job
// reaches a terminal state. Chunked JSONL by default — the exact lines
// a `cisim run -events` file would hold — or SSE frames when the client
// asks for text/event-stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, t := s.lookup(w, r)
	if t != nil {
		s.writeGone(w, t, "event log")
		return
	}
	if j == nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)

	ch := j.log.subscribe()
	defer j.log.unsubscribe(ch)
	sent := 0
	for {
		lines, closed := j.log.since(sent)
		for _, line := range lines {
			if sse {
				if _, err := w.Write([]byte("data: ")); err != nil {
					return
				}
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			if sse {
				if _, err := w.Write([]byte("\n")); err != nil {
					return
				}
			}
		}
		sent += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
