package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"

	"cisim/internal/telemetry"
)

// digests.json holds, per experiment, the sha256 of the quick result
// bytes exp.WriteJSON writes for that experiment alone — what
// `cisim run -quick -json <id>` prints and what the daemon's result
// endpoint returns for a single-experiment sweep.
//
//go:embed digests.json
var digestsJSON []byte

// gate maps an experiment id to the hex sha256 its result bytes must
// have.
type gate map[string]string

func recordedDigests() gate {
	var g gate
	if err := json.Unmarshal(digestsJSON, &g); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return g
}

// ok reports whether body is the recorded result of experiment id.
func (g gate) ok(id string, body []byte) bool {
	want, known := g[id]
	sum := sha256.Sum256(body)
	return known && hex.EncodeToString(sum[:]) == want
}

// tracer records the benchmark's own spans around its calls into the
// program. A nil tracer records nothing, which is the untraced mode.
type tracer struct {
	col *telemetry.Collector
}

// span starts a span on the calling goroutine and binds it, so spans
// the program starts on this goroutine nest under it; the returned
// function ends it.
func (t *tracer) span(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	sp := t.col.Start(name)
	unbind := sp.Bind()
	return func() {
		unbind()
		sp.End()
	}
}
