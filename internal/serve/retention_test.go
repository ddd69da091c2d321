package serve

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cisim/internal/api"
	"cisim/internal/telemetry"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetentionCompactsOldSweeps runs more sweeps than the daemon keeps
// in full. The oldest are compacted to tombstones: their result and
// event log answer 410 naming the journal, while status, the listing,
// /healthz and /spans keep answering. Past the retention window the
// heap grows by at most a tombstone's worth per sweep.
func TestRetentionCompactsOldSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 300+ sweeps")
	}
	journals := t.TempDir()
	srv, ts := newTestServer(t, Config{JournalDir: journals})
	const extra = 60
	total := retainSweeps + extra
	ids := make([]string, 0, total)
	run := func() {
		var info api.JobInfo
		if resp := submit(t, ts, `{"v":1,"experiments":["fig5"],"quick":true}`, &info); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		srv.mu.Lock()
		j := srv.jobs[info.ID]
		srv.mu.Unlock()
		<-j.done
		ids = append(ids, info.ID)
	}
	for len(ids) < retainSweeps {
		run()
	}
	before := liveHeap()
	for len(ids) < total {
		run()
	}
	growth := int64(liveHeap()) - int64(before)
	// A fig5 sweep's full record costs about 15 KB, most of it event
	// lines; its tombstone keeps only the status snapshot and the span
	// JSONL, about 2 KB.
	if perSweep := growth / extra; perSweep > 6<<10 {
		t.Errorf("live heap grew %d bytes over %d sweeps past the retention window (%d B a sweep), want under 6 KB a sweep",
			growth, extra, perSweep)
	}

	srv.mu.Lock()
	full, tombs := len(srv.jobs), len(srv.tombs)
	srv.mu.Unlock()
	if full != retainSweeps || tombs != extra {
		t.Errorf("%d full records and %d tombstones, want %d and %d", full, tombs, retainSweeps, extra)
	}

	get := func(id, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	oldest, newest := ids[0], ids[len(ids)-1]
	for _, path := range []string{"/result", "/events"} {
		code, body := get(oldest, path)
		if code != http.StatusGone {
			t.Errorf("compacted %s%s: HTTP %d, want 410", oldest, path, code)
		}
		if journal := filepath.Join(journals, oldest+".journal"); !strings.Contains(body, journal) {
			t.Errorf("compacted %s%s does not name the journal %s: %s", oldest, path, journal, body)
		}
		if code, _ := get(newest, path); code != http.StatusOK {
			t.Errorf("retained %s%s: HTTP %d, want 200", newest, path, code)
		}
	}
	var info api.JobInfo
	if resp := getJSON(t, ts.URL+"/v1/sweeps/"+oldest, &info); resp.StatusCode != http.StatusOK || info.Status != api.StatusDone {
		t.Errorf("compacted status: HTTP %d, %+v", resp.StatusCode, info)
	}
	code, body := get(oldest, "/spans")
	if code != http.StatusOK {
		t.Fatalf("compacted spans: HTTP %d", code)
	}
	recs, err := telemetry.ReadJSONL(bytes.NewReader([]byte(body)))
	if err != nil || len(recs) == 0 || recs[0].Trace == "" {
		t.Errorf("compacted spans: %d records, err %v", len(recs), err)
	}
	var list api.JobList
	getJSON(t, ts.URL+"/v1/sweeps", &list)
	if len(list.Jobs) != total || list.Jobs[0].ID != oldest || list.Jobs[total-1].ID != newest {
		t.Errorf("listing has %d sweeps, want all %d in submission order", len(list.Jobs), total)
	}
	var h api.Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Completed != total || h.Queued+h.Running != 0 {
		t.Errorf("healthz = %+v, want %d completed", h, total)
	}
}
