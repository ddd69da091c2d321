package runner

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"cisim/internal/ideal"
	"cisim/internal/ooo"
	"cisim/internal/store"
	"cisim/internal/telemetry"
)

// Persistent backend (internal/store) integration. With a store
// attached (SetStore), the cache is write-through for the two artifact
// kinds that dominate run time: detailed simulation results and
// ideal-model grids.
//
//	memory hit  → served as before, the store never consulted;
//	memory miss → the store is consulted; a verified disk blob decodes
//	              straight into the entry (store_hit) and counts as a
//	              hit for the caller, otherwise the artifact is computed
//	              and written through (store_put);
//	corruption  → a blob failing its checksum, failing to decode, or
//	              decoding to a value whose Fingerprint disagrees with
//	              the one recorded at put time is quarantined
//	              (store_quarantine) and the artifact recomputed — the
//	              same self-heal contract the in-memory cache keeps.
//
// Computes on a store miss run under the store's per-entry exclusive
// flock, making the in-process singleflight cross-process: N workers
// asking for one address do the work once, whichever process wins the
// lock. A lock that cannot be had within the store's patience (a wedged
// holder, or the injected store-lock-stale fault) degrades to computing
// without dedup — duplicate work, never a wrong answer.
//
// Programs, traces and preps are deliberately not persisted: traces and
// preps carry cyclic graph pointers and unexported state that do not
// round-trip a codec, and all three are cheap to rebuild. Measured by
// perfbench's sweep-cold ledger on a 2-vCPU Xeon (go1.24.0), at quick
// scale: a trace costs about 5 ms to generate and an ooo prep about
// 2 ms, against about 36 ms for one detailed simulation and about
// 165 ms for one workload's Figure 3 grid (18 scheduler runs). A grid is
// one blob, not one per point: each store put costs 2-3 ms, mostly
// fsyncs, and per-point blobs would make a cold sweep write 90 ideal
// blobs instead of 5.

// SetStore attaches (or, with nil, detaches) a persistent artifact
// store behind the cache.
func (c *Cache) SetStore(st *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = st
}

// Store returns the attached persistent store, or nil.
func (c *Cache) Store() *store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// diskFor returns the store to consult for an artifact kind, nil when
// the kind is memory-only or no store is attached.
func (c *Cache) diskFor(kind string) *store.Store {
	if kind != KindResult && kind != KindIdeal {
		return nil
	}
	return c.Store()
}

// throughDisk interposes the persistent store on a memory miss. It
// preserves compute's contract exactly — same value type, same errors —
// so getDepth's fingerprinting, corruption faulting and heal logic
// apply unchanged to disk-served values. The bool reports that the
// value was read from the store rather than computed.
func (c *Cache) throughDisk(kind, key, address string, compute func() (interface{}, error)) (interface{}, bool, error) {
	d := c.diskFor(kind)
	if d == nil {
		v, err := compute()
		return v, false, err
	}
	if v, ok := c.diskGet(d, kind, key, address); ok {
		return v, true, nil
	}
	lockSp := telemetry.StartSpan("store:lock_wait")
	if lockSp != nil {
		lockSp.Kind, lockSp.Key, lockSp.Addr = kind, key, address
	}
	unlock, ok := d.LockEntry(address)
	if lockSp != nil && !ok {
		lockSp.Err = "lock not acquired within patience; computing without dedup"
	}
	lockSp.End()
	if ok {
		defer unlock()
		// Re-check under the lock: while we waited, the previous holder
		// may have computed and stored this very entry. GetLocked, not
		// Get — a read-pin through a second descriptor would block on
		// our own exclusive hold.
		if v, ok := c.diskGetLocked(d, kind, key, address); ok {
			return v, true, nil
		}
	}
	// Without the lock this computes without cross-process dedup
	// (correct, possibly duplicated) and still writes through for
	// future readers.
	v, err := compute()
	if err == nil {
		c.diskPut(d, kind, key, address, v)
	}
	return v, false, err
}

// diskGet fetches and fully verifies one artifact from the store:
// store-level checksums first (inside store.Get), then decode, then the
// Fingerprinter check against the fingerprint recorded at put time.
// Any failure quarantines the blob and reports a miss.
func (c *Cache) diskGet(d *store.Store, kind, key, address string) (interface{}, bool) {
	return c.diskFetch(d, kind, key, address, d.Get)
}

// diskGetLocked is diskGet for the singleflight winner, which already
// holds the entry's exclusive flock.
func (c *Cache) diskGetLocked(d *store.Store, kind, key, address string) (interface{}, bool) {
	return c.diskFetch(d, kind, key, address, d.GetLocked)
}

func (c *Cache) diskFetch(d *store.Store, kind, key, address string,
	read func(kind, addr string) ([]byte, uint64, bool, error)) (interface{}, bool) {
	sp := telemetry.StartSpan("store:get")
	if sp != nil {
		sp.Kind, sp.Key, sp.Addr = kind, key, address
	}
	defer sp.End()
	payload, fp, found, err := read(kind, address)
	if err != nil {
		var ce *store.CorruptError
		if errors.As(err, &ce) {
			c.storeCountQuarantine()
			if sp != nil {
				sp.Err = ce.Reason
			}
			emit(c.sinkNow(), Event{Ev: "store_quarantine", Kind: kind, Key: key, Addr: address, Err: ce.Reason})
		}
		// Read errors (permissions, transient I/O) degrade to a miss: the
		// store is an accelerator, never a point of failure.
		return nil, false
	}
	if !found {
		return nil, false
	}
	v, derr := decodeArtifact(kind, payload)
	if derr == nil {
		if sum, ok := fingerprint(v); !ok || sum != fp {
			derr = errors.New("decoded artifact fingerprint disagrees with stored fingerprint")
		}
	}
	if derr != nil {
		d.Quarantine(kind, address, derr.Error())
		c.storeCountQuarantine()
		if sp != nil {
			sp.Err = derr.Error()
		}
		emit(c.sinkNow(), Event{Ev: "store_quarantine", Kind: kind, Key: key, Addr: address, Err: derr.Error()})
		return nil, false
	}
	c.storeCountHit()
	if sp != nil {
		sp.Bytes = int64(len(payload))
	}
	emit(c.sinkNow(), Event{Ev: "store_hit", Kind: kind, Key: key, Addr: address, Bytes: int64(len(payload))})
	return v, true
}

// diskPut writes a freshly computed artifact through to the store.
// Failures are absorbed: a store that cannot accept writes (full disk,
// injected faults) costs future misses, not the current run.
func (c *Cache) diskPut(d *store.Store, kind, key, address string, v interface{}) {
	sp := telemetry.StartSpan("store:put")
	if sp != nil {
		sp.Kind, sp.Key, sp.Addr = kind, key, address
	}
	defer sp.End()
	sum, ok := fingerprint(v)
	if !ok {
		return
	}
	payload, err := encodeArtifact(kind, v)
	if err != nil {
		return
	}
	st, err := d.Put(kind, address, payload, sum)
	if err != nil {
		if sp != nil {
			sp.Err = err.Error()
		}
		return
	}
	if sp != nil {
		sp.Bytes = st.Bytes
	}
	c.storeCountPut()
	sink := c.sinkNow()
	emit(sink, Event{Ev: "store_put", Kind: kind, Key: key, Addr: address, Bytes: st.Bytes})
	for _, ev := range st.Evicted {
		c.storeCountEviction()
		emit(sink, Event{Ev: "store_evict", Kind: ev.Kind, Addr: ev.Addr, Bytes: ev.Bytes})
	}
}

// sinkNow snapshots the current sink under the cache lock.
func (c *Cache) sinkNow() Sink {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sink
}

// The store-layer counter bumps each take the cache lock themselves:
// they sit on store I/O paths where the lock is never already held, and
// keeping the increment inside the locking function keeps the guarded-
// field discipline checkable.

func (c *Cache) storeCountHit() {
	c.mu.Lock()
	c.store.hits++
	c.mu.Unlock()
}

func (c *Cache) storeCountPut() {
	c.mu.Lock()
	c.store.puts++
	c.mu.Unlock()
}

func (c *Cache) storeCountEviction() {
	c.mu.Lock()
	c.store.evictions++
	c.mu.Unlock()
}

func (c *Cache) storeCountQuarantine() {
	c.mu.Lock()
	c.store.quarantines++
	c.mu.Unlock()
}

// encodeArtifact serializes an artifact for the store. Only result and
// ideal-grid blobs are persisted (see the package comment above); the
// codec is gob — self-describing, dependency-free, and ooo.Result and
// ideal.Grid are all exported concrete data.
func encodeArtifact(kind string, v interface{}) ([]byte, error) {
	var ok bool
	switch kind {
	case KindResult:
		_, ok = v.(*ooo.Result)
	case KindIdeal:
		_, ok = v.(ideal.Grid)
	}
	if !ok {
		return nil, fmt.Errorf("runner: kind %s is not persistable", kind)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeArtifact is encodeArtifact's inverse.
func decodeArtifact(kind string, payload []byte) (interface{}, error) {
	dec := gob.NewDecoder(bytes.NewReader(payload))
	switch kind {
	case KindResult:
		var r ooo.Result
		if err := dec.Decode(&r); err != nil {
			return nil, err
		}
		return &r, nil
	case KindIdeal:
		var g ideal.Grid
		if err := dec.Decode(&g); err != nil {
			return nil, err
		}
		return g, nil
	}
	return nil, fmt.Errorf("runner: kind %s is not persistable", kind)
}
