package runner

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cisim/internal/ideal"
	"cisim/internal/ooo"
	storage "cisim/internal/store"
	"cisim/internal/trace"
)

// gridCfgs is a small Figure 3 style grid: two windows of every model.
func gridCfgs() []ideal.Config {
	var cfgs []ideal.Config
	for _, win := range []int{32, 128} {
		for _, m := range ideal.Models() {
			cfgs = append(cfgs, ideal.Config{Model: m, WindowSize: win})
		}
	}
	return cfgs
}

func openStore(t *testing.T, dir string) *storage.Store {
	t.Helper()
	st, err := storage.Open(storage.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// storeCache returns a fresh in-memory cache over st, as a new process
// sharing the store would have.
func storeCache(st *storage.Store) *Cache {
	c := NewCache()
	c.SetStore(st)
	return c
}

// TestIdealGridStoreRoundTrip: a grid computed by one cache is written
// through to the store once, and a fresh cache over the same store
// serves the identical grid without generating the trace or building
// the prep, and charges no simulated instructions for it.
func TestIdealGridStoreRoundTrip(t *testing.T) {
	st := openStore(t, t.TempDir())
	w := testWorkload(t)
	cfgs := gridCfgs()

	cold := storeCache(st)
	g1, n1, err := cold.Ideal(context.Background(), w, 100, trace.Options{}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != len(cfgs) || n1 == 0 {
		t.Fatalf("cold grid: %d results, %d instructions", len(g1), n1)
	}
	for i, r := range g1 {
		if r.Model != cfgs[i].Model || r.Window != cfgs[i].WindowSize {
			t.Errorf("result %d is %v/%d, want %v/%d", i, r.Model, r.Window, cfgs[i].Model, cfgs[i].WindowSize)
		}
	}
	if s := cold.Stats(); s.IdealMisses != 1 || s.StorePuts != 1 || s.StoreHits != 0 {
		t.Errorf("cold stats = %+v, want 1 ideal miss and 1 store put", s)
	}
	if _, n, err := cold.Ideal(context.Background(), w, 100, trace.Options{}, cfgs); err != nil || n != 0 {
		t.Errorf("memory hit: %d instructions, err %v; want 0", n, err)
	}
	if s := cold.Stats(); s.IdealHits != 1 {
		t.Errorf("second lookup was not a memory hit: %+v", s)
	}

	warm := storeCache(st)
	g2, n2, err := warm.Ideal(context.Background(), w, 100, trace.Options{}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Errorf("store-served grid charged %d instructions, want 0", n2)
	}
	if !reflect.DeepEqual(g1, g2) {
		t.Errorf("store round trip changed the grid:\n  %+v\n  %+v", g1, g2)
	}
	s := warm.Stats()
	if s.StoreHits != 1 || s.StorePuts != 0 {
		t.Errorf("warm store traffic = %d hits / %d puts, want 1/0", s.StoreHits, s.StorePuts)
	}
	if s.ProgramMisses+s.TraceMisses+s.PrepMisses != 0 {
		t.Errorf("a store-served grid built its inputs: %+v", s)
	}

	// A different grid over the same trace is a different artifact.
	if _, n, err := warm.Ideal(context.Background(), w, 100, trace.Options{}, cfgs[:3]); err != nil || n == 0 {
		t.Errorf("sub-grid was served from another grid's entry (%d instructions, err %v)", n, err)
	}
}

// TestIdealGridBadBlobHealed: a grid blob that fails the store's
// checksum, or passes it but does not decode, is quarantined and the
// grid recomputed once, byte-for-byte the same; the rewritten blob then
// serves the next process.
func TestIdealGridBadBlobHealed(t *testing.T) {
	cases := []struct {
		name  string
		spoil func(t *testing.T, st *storage.Store, path, address string)
	}{
		{"corrupt", func(t *testing.T, _ *storage.Store, path, _ string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"undecodable", func(t *testing.T, st *storage.Store, _, address string) {
			// A well-formed store blob whose payload is not a gob grid.
			if _, err := st.Put(KindIdeal, address, []byte("not a grid"), 1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	w := testWorkload(t)
	cfgs := gridCfgs()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			want, _, err := storeCache(st).Ideal(context.Background(), w, 100, trace.Options{}, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			blobs, _ := filepath.Glob(filepath.Join(dir, "blobs", "*", "*."+KindIdeal))
			if len(blobs) != 1 {
				t.Fatalf("store holds %d ideal blobs, want 1", len(blobs))
			}
			address := strings.TrimSuffix(filepath.Base(blobs[0]), "."+KindIdeal)
			tc.spoil(t, st, blobs[0], address)

			c := storeCache(st)
			quarantines := 0
			ctx := WithSink(context.Background(), sinkFunc(func(e Event) {
				if e.Ev == "store_quarantine" {
					quarantines++
				}
			}))
			got, n, err := c.Ideal(ctx, w, 100, trace.Options{}, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("healed grid: %d instructions, equal %v; want a recomputed, identical grid", n, reflect.DeepEqual(got, want))
			}
			s := c.Stats()
			if s.StoreHealed != 1 || s.StorePuts != 1 || s.IdealMisses != 1 {
				t.Errorf("stats = %+v, want 1 quarantine, 1 rewrite, 1 ideal miss", s)
			}
			if quarantines != 1 {
				t.Errorf("%d store_quarantine events, want 1", quarantines)
			}

			again, n, err := storeCache(st).Ideal(context.Background(), w, 100, trace.Options{}, cfgs)
			if err != nil || n != 0 || !reflect.DeepEqual(again, want) {
				t.Errorf("rewritten blob did not serve the next cache (%d instructions, err %v)", n, err)
			}
		})
	}
}

// TestIdealRecordTimesNotMemoized: a grid with a RecordTimes
// configuration is computed on every call and never reaches the cache
// or the store.
func TestIdealRecordTimesNotMemoized(t *testing.T) {
	st := openStore(t, t.TempDir())
	c := storeCache(st)
	w := testWorkload(t)
	cfgs := []ideal.Config{{Model: ideal.WRFD, WindowSize: 32}, {Model: ideal.Base, WindowSize: 32, RecordTimes: true}}
	var grids []ideal.Grid
	for i := 0; i < 2; i++ {
		g, n, err := c.Ideal(context.Background(), w, 100, trace.Options{}, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Errorf("call %d simulated nothing", i)
		}
		if len(g[1].IssueCycle) == 0 {
			t.Errorf("call %d: RecordTimes result carries no issue times", i)
		}
		grids = append(grids, g)
	}
	if &grids[0][0] == &grids[1][0] {
		t.Error("the two calls share one grid")
	}
	if s := c.Stats(); s.IdealHits+s.IdealMisses != 0 || s.StorePuts != 0 {
		t.Errorf("a RecordTimes grid touched the ideal cache or the store: %+v", s)
	}
	if n, _ := st.Usage(); n != 0 {
		t.Errorf("store holds %d entries, want 0", n)
	}
}

// TestDetailedStoreHitBuildsNoPrep: a detailed result served from the
// store counts as a hit for the caller, and builds no prep.
func TestDetailedStoreHitBuildsNoPrep(t *testing.T) {
	st := openStore(t, t.TempDir())
	w := testWorkload(t)
	cfg := ooo.Config{Machine: ooo.CI, WindowSize: 64, MaxInstrs: 4_000}
	r1, hit, err := storeCache(st).Detailed(context.Background(), w, 100, cfg)
	if err != nil || hit {
		t.Fatalf("cold: hit=%v err=%v", hit, err)
	}
	c := storeCache(st)
	r2, hit, err := c.Detailed(context.Background(), w, 100, cfg)
	if err != nil || !hit {
		t.Fatalf("store-served result: hit=%v err=%v, want a hit", hit, err)
	}
	if r2.Stats != r1.Stats {
		t.Error("store round trip changed the result")
	}
	if s := c.Stats(); s.PrepHits+s.PrepMisses != 0 || s.ResultMisses != 1 || s.StoreHits != 1 {
		t.Errorf("stats = %+v, want no prep lookup, 1 result miss served by 1 store hit", s)
	}
}
