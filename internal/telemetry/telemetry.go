// Package telemetry is the harness's span-tracing subsystem: a
// deterministic-ID span model (trace ID / span ID / parent, a fixed
// attribute vocabulary, monotonic start and duration) with JSONL and
// Chrome trace-event export, so every millisecond of a sweep — queue
// wait, job execution, pipeline stages, persistent-store traffic — is
// attributable offline (DESIGN.md §14).
//
// The determinism contract mirrors the run-event stream's: spans are a
// side channel that never feeds back into simulation. IDs carry no
// randomness and no wall-clock time — the trace ID is a sha256
// derivation of caller-chosen parts (TraceID) or adopted from a client's
// traceparent header, and span IDs are a per-collector counter rendered
// as fixed-width hex, so a serial run produces byte-stable IDs and a
// parallel run produces IDs that differ only in allocation order.
// Timestamps are microseconds since the collector's epoch (monotonic,
// never absolute), so two runs of the same sweep differ only in
// durations. Simulation results are identical with tracing on or off.
//
// Instrumented code paths start spans from a context.Context (Start):
// the ctx carries the collector and the current parent span, so a span
// nests under whatever span started the ctx it was handed, and two
// sweeps running side by side never see each other's spans. A ctx with
// no collector makes every operation a nil-safe no-op, which is the
// production default. The ctx rides as its own argument, never inside
// a cache key, so threading it changes no content address.
//
// Code that traces *around* the program — a benchmark harness timing
// its own calls — uses the process-global collector (Enable) and
// goroutine-bound parenting (Bind) instead; the sweep engine adopts
// both (Adopt) when its ctx carries no collector.
package telemetry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one finished span, serialized as a JSON line. Like
// runner.Event, the shape is flat and pinned by a golden test
// (cmd/cisim/testdata/span_schema.json): a fixed field vocabulary
// instead of an open attribute map, so offline analyzers parse by name.
//
// Span names in use: sweep, job, merge, stage:program, stage:trace,
// stage:prep, stage:sim, store:get, store:put, store:lock_wait,
// serve:sweep, client:sweep.
type Record struct {
	// Trace, Span, Parent identify the span: a 32-hex trace ID shared by
	// every span of one sweep (W3C-traceparent compatible), a 16-hex
	// span ID, and the parent span's ID ("" for a root).
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`

	// TUs is the span's start in microseconds since the collector's
	// epoch; DurUs is its duration. Both are monotonic-clock derived and
	// rounded to two decimals, like the event stream's t_ms.
	TUs   float64 `json:"t_us"`
	DurUs float64 `json:"dur_us"`

	// Identity attributes, mirroring the event stream's fields: the
	// owning experiment and workload (job, merge), artifact kind and
	// content address (stage:*, store:*), the 1-based pool worker, and
	// the attempt number (only stamped on retries, like job events).
	Exp     string `json:"exp,omitempty"`
	Key     string `json:"key,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Addr    string `json:"addr,omitempty"`
	Worker  int    `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`

	// QueueUs is how long the work waited before this span started: pool
	// dispatch latency on a job's first attempt, submit-to-dispatch wait
	// on a serve:sweep.
	QueueUs float64 `json:"queue_us,omitempty"`
	// Bytes is the blob size moved by store:get / store:put spans.
	Bytes int64 `json:"bytes,omitempty"`
	// Err records the span's failure, "" on success.
	Err string `json:"err,omitempty"`
}

// End returns the record's end time in microseconds since epoch.
func (r Record) End() float64 { return r.TUs + r.DurUs }

// Collector accumulates one trace's spans. All methods are safe for
// concurrent use; a collector is cheap enough to build per sweep.
type Collector struct {
	trace string
	epoch time.Time

	mu    sync.Mutex
	next  uint64            // guarded by mu; span ID counter
	done  []Record          // guarded by mu; finished spans
	bound map[uint64]string // guarded by mu; goroutine ID -> span ID
}

// NewCollector returns a collector for the given 32-hex trace ID; an
// empty ID gets the deterministic default TraceID("cisim").
func NewCollector(traceID string) *Collector {
	if traceID == "" {
		traceID = TraceID("cisim")
	}
	return &Collector{trace: traceID, epoch: time.Now(), bound: map[uint64]string{}}
}

// Trace returns the collector's trace ID.
func (c *Collector) Trace() string { return c.trace }

// active is the process-global collector for code that traces around
// the program (see Adopt); nil (the default) disables it.
var active atomic.Pointer[Collector]

// Enable installs c as the process-global collector.
func Enable(c *Collector) { active.Store(c) }

// Disable removes the process-global collector.
func Disable() { active.Store(nil) }

// Current returns the process-global collector, nil when tracing is off.
func Current() *Collector { return active.Load() }

// ctxKey keys a scope in a context.
type ctxKey struct{}

// scope is what a ctx carries: the collector spans go to and the span
// ID new spans parent under ("" makes them roots).
type scope struct {
	c      *Collector
	parent string
}

// WithCollector returns a ctx whose spans go to c, parented under the
// span ID parent ("" for roots). A nil c carries no collector.
func WithCollector(ctx context.Context, c *Collector, parent string) context.Context {
	return context.WithValue(ctx, ctxKey{}, scope{c: c, parent: parent})
}

// Start begins a span on ctx's collector under ctx's parent and returns
// it with a ctx in which it is the parent. Without a collector it
// returns (nil, ctx); every Span method is nil-safe, so callers that
// set attribute fields must guard: if sp != nil { sp.Exp = ... }.
func Start(ctx context.Context, name string) (*Span, context.Context) {
	s, _ := ctx.Value(ctxKey{}).(scope)
	if s.c == nil {
		return nil, ctx
	}
	sp := s.c.StartWith(s.parent, name)
	return sp, WithCollector(ctx, s.c, sp.id)
}

// Adopt returns ctx unchanged when it carries a collector. Otherwise,
// with a process-global collector enabled, it returns a ctx carrying
// that collector, parented under the calling goroutine's bound span:
// the one place process defaults become a ctx, so tracing set up around
// the program still captures the program's spans.
func Adopt(ctx context.Context) context.Context {
	if s, _ := ctx.Value(ctxKey{}).(scope); s.c != nil {
		return ctx
	}
	c := Current()
	if c == nil {
		return ctx
	}
	return WithCollector(ctx, c, c.boundSpan())
}

// Span is a live, unfinished span. The attribute fields may be set by
// the owning goroutine any time before End; the handle is not safe for
// concurrent use (the Collector behind it is).
type Span struct {
	Exp, Key   string
	Kind, Addr string
	Worker     int
	Attempt    int
	QueueUs    float64
	Bytes      int64
	Err        string

	c      *Collector
	id     string
	parent string
	name   string
	start  time.Time
	tUs    float64
	ended  bool
}

// Start begins a span whose parent is the calling goroutine's bound
// span, or a root when none is bound.
func (c *Collector) Start(name string) *Span { return c.StartWith(c.boundSpan(), name) }

// boundSpan returns the span ID bound to the calling goroutine, "" when
// none is.
func (c *Collector) boundSpan() string {
	g := gid()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bound[g]
}

// StartWith begins a span under an explicit parent span ID ("" for a
// root): a ctx's parent, or one that crossed a process boundary, like a
// client span arriving in a traceparent header.
func (c *Collector) StartWith(parent, name string) *Span {
	c.mu.Lock()
	c.next++
	id := fmt.Sprintf("%016x", c.next)
	c.mu.Unlock()
	now := time.Now()
	return &Span{c: c, id: id, parent: parent, name: name,
		start: now, tUs: Us(now.Sub(c.epoch))}
}

// ID returns the span's 16-hex ID, "" on a nil span.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// End finishes the span and appends its record to the collector.
// Nil-safe and idempotent; a late End after the collector was exported
// appends a record nobody reads, which is harmless (the watchdog may
// abandon a job goroutine that ends its spans after the sweep).
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	rec := Record{
		Trace: s.c.trace, Span: s.id, Parent: s.parent, Name: s.name,
		TUs: s.tUs, DurUs: Us(time.Since(s.start)),
		Exp: s.Exp, Key: s.Key, Kind: s.Kind, Addr: s.Addr,
		Worker: s.Worker, Attempt: s.Attempt,
		QueueUs: s.QueueUs, Bytes: s.Bytes, Err: s.Err,
	}
	s.c.mu.Lock()
	s.c.done = append(s.c.done, rec)
	s.c.mu.Unlock()
}

// Bind makes s the parent of spans Collector.Start starts on the
// calling goroutine, and of the sweep Adopt roots there, until the
// returned restore runs; restore reinstates the previous binding.
// Nil-safe: a nil span returns a no-op restore.
func (s *Span) Bind() func() {
	if s == nil {
		return func() {}
	}
	c, g := s.c, gid()
	c.mu.Lock()
	prev, had := c.bound[g]
	c.bound[g] = s.id
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		if had {
			c.bound[g] = prev
		} else {
			delete(c.bound, g)
		}
		c.mu.Unlock()
	}
}

// Records snapshots the finished spans, sorted by start time then span
// ID so export order is deterministic regardless of End interleaving.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	recs := make([]Record, len(c.done))
	copy(recs, c.done)
	c.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].TUs != recs[j].TUs {
			return recs[i].TUs < recs[j].TUs
		}
		return recs[i].Span < recs[j].Span
	})
	return recs
}

// TraceID derives a 32-hex trace ID from the parts — sha256-based like
// the artifact cache's content addresses, so the same inputs name the
// same trace and no randomness or clock is involved.
func TraceID(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Us converts a duration to microseconds rounded to two decimals, the
// resolution every Record field uses.
func Us(d time.Duration) float64 { return round2(float64(d.Nanoseconds()) / 1e3) }

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }

// gid returns the calling goroutine's numeric ID, parsed from the
// "goroutine N [...]" header of its stack trace. The runtime offers no
// cheaper supported accessor; one small Stack call per span start is
// far off the simulation hot path (spans wrap millisecond-scale work).
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, ch := range buf[prefix:n] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}
