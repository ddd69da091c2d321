package serve

// Span retrieval: GET /v1/sweeps/{id}/spans returns a terminal sweep's
// span records as JSONL — the same lines `cisim run -spans` writes, so
// `cisim spans` analyzes either source. Tracing is always on for daemon
// sweeps; the records are a side channel and results stay byte-
// identical (the determinism contract in internal/telemetry). The
// records outlive a sweep's compaction to a tombstone.

import (
	"fmt"
	"net/http"

	"cisim/internal/api"
)

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	j, t := s.lookup(w, r)
	var st api.Status
	var spans []byte
	switch {
	case t != nil:
		st, spans = t.info.Status, t.spans
	case j != nil:
		s.mu.Lock()
		st, spans = j.status, j.spans
		s.mu.Unlock()
	default:
		return
	}
	if !st.Terminal() {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSec))
		writeErr(w, http.StatusConflict, fmt.Errorf("sweep %s is %s; spans are available once it is terminal", r.PathValue("id"), st))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(spans)
}
