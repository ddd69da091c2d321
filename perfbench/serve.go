package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"cisim/internal/api"
	"cisim/internal/runner"
	"cisim/internal/serve"
	"cisim/internal/telemetry"
)

// serveWorkload is serve-mixed: the daemon's steady state. nproc
// clients run a closed loop, each submitting a single-experiment quick
// sweep, blocking on its event stream until the sweep ends, then
// fetching the result. Set-up starts the daemon and warms the in-memory
// cache with one sweep of every experiment through it.
type serveWorkload struct {
	srv *serve.Server
	ts  *httptest.Server
	c   *client
}

func (w *serveWorkload) setupReps() int { return 3 }

func (w *serveWorkload) setUp(b *bench) (checked, failed int, err error) {
	runner.Artifacts.SetStore(nil)
	runner.Artifacts.Reset()
	w.srv = serve.New(serve.Config{Jobs: b.nproc})
	w.ts = httptest.NewServer(w.srv)
	w.c = newClient(w.ts.URL, b.nproc, b.digests)
	for _, id := range b.exps {
		r := w.c.roundTrip(id, nil)
		if r.err != nil {
			return checked, failed, fmt.Errorf("warming the daemon with %s: %w", id, r.err)
		}
		checked++
		if !r.ok {
			failed++
		}
	}
	return checked, failed, nil
}

func (w *serveWorkload) tearDown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = w.srv.Shutdown(ctx)
	w.c.close()
	w.ts.Close()
	w.srv, w.ts, w.c = nil, nil, nil
}

// measure runs the closed loop until the wall time has passed and the
// current round of requests is complete.
func (w *serveWorkload) measure(b *bench, secs float64, tr *tracer) (*phase, error) {
	d := newDispenser(b.rng, b.exps, time.Now().Add(time.Duration(secs*float64(time.Second))))
	p := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	resetPeakRSS()
	stats0 := runner.Artifacts.Stats()
	rt0, c0, t0 := markRuntime(), cpuSeconds(), time.Now()
	for i := 0; i < b.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id, ok := d.next()
				if !ok {
					return
				}
				r := w.c.roundTrip(id, tr)
				mu.Lock()
				p.requests = append(p.requests, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0).Seconds()
	p.cpuTotal = cpuSeconds() - c0
	p.rt = markRuntime().since(rt0)
	p.peakRSSMB = peakRSSMB()
	p.cache = runner.Artifacts.Stats().Sub(stats0)

	for _, r := range p.requests {
		p.ops++
		p.attempted++
		if r.rejected {
			p.rejected++
		}
		if !r.ok {
			// A failed or refused request has no latency to report; it
			// fails the run's correctness instead.
			p.failed++
			continue
		}
		p.rtt = append(p.rtt, r.rttMs)
	}
	if tr != nil {
		// The daemon traces every sweep with its own collector; fetch
		// each sweep's spans once the loop is over.
		for _, r := range p.requests {
			if r.job == "" {
				continue
			}
			spans, err := w.c.sweepSpans(r.job)
			if err != nil {
				return nil, err
			}
			p.serverSpans = append(p.serverSpans, spans)
		}
	}
	return p, nil
}

// dispenser hands out experiment ids in a seeded shuffle, one round of
// every experiment at a time, and stops only at a round boundary once
// the deadline has passed, so every experiment is requested equally
// often.
type dispenser struct {
	mu       sync.Mutex
	rng      *rand.Rand // guarded by mu
	ids      []string
	round    []string // guarded by mu
	sent     int      // guarded by mu
	deadline time.Time
}

func newDispenser(rng *rand.Rand, ids []string, deadline time.Time) *dispenser {
	return &dispenser{rng: rng, ids: ids, deadline: deadline}
}

func (d *dispenser) next() (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.round) == 0 {
		if d.sent > 0 && time.Now().After(d.deadline) {
			return "", false
		}
		d.round = append([]string(nil), d.ids...)
		d.rng.Shuffle(len(d.round), func(i, j int) { d.round[i], d.round[j] = d.round[j], d.round[i] })
	}
	id := d.round[0]
	d.round = d.round[1:]
	d.sent++
	return id, true
}

// client talks to the daemon over at most nproc connections.
type client struct {
	base    string
	jobs    int
	digests gate
	tr      *http.Transport
	hc      *http.Client
}

func newClient(base string, nproc int, digests gate) *client {
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	return &client{base: base, jobs: nproc, digests: digests, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// request is one round trip's record.
type request struct {
	exp      string
	job      string
	rttMs    float64
	rejected bool // answered 429
	ok       bool // result received and its digest matched
	err      error
}

// roundTrip submits a quick sweep of one experiment, waits on its event
// stream until the sweep ends, then fetches and checks the result.
func (c *client) roundTrip(id string, tr *tracer) request {
	r := request{exp: id}
	end := tr.span("bench:request")
	defer end()
	t0 := time.Now()
	body, _ := json.Marshal(api.SweepRequest{V: api.Version, Experiments: []string{id}, Quick: true, Jobs: c.jobs})

	endPost := tr.span("bench:post")
	resp, err := c.hc.Post(c.base+"/v1/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		endPost()
		r.err = err
		return r
	}
	var info api.JobInfo
	derr := json.NewDecoder(resp.Body).Decode(&info)
	drain(resp)
	endPost()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		r.rejected = true
		return r
	case resp.StatusCode != http.StatusAccepted || derr != nil:
		r.err = fmt.Errorf("submit: status %d", resp.StatusCode)
		return r
	}
	r.job = info.ID

	endEvents := tr.span("bench:events")
	resp, err = c.hc.Get(c.base + "/v1/sweeps/" + info.ID + "/events")
	if err == nil {
		drain(resp)
	}
	endEvents()
	if err != nil {
		r.err = err
		return r
	}

	endResult := tr.span("bench:result")
	resp, err = c.hc.Get(c.base + "/v1/sweeps/" + info.ID + "/result")
	var res []byte
	if err == nil {
		res, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	endResult()
	r.rttMs = ms(time.Since(t0))
	if err != nil {
		r.err = err
		return r
	}
	r.ok = resp.StatusCode == http.StatusOK && c.digests.ok(id, res)
	return r
}

// sweepSpans fetches one finished sweep's span records.
func (c *client) sweepSpans(job string) ([]telemetry.Record, error) {
	resp, err := c.hc.Get(c.base + "/v1/sweeps/" + job + "/spans")
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	recs, err := telemetry.ReadJSONL(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("sweep %s spans: %w", job, err)
	}
	return recs, nil
}

// drain reads a response body to its end and closes it, so the
// connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
