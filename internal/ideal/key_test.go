package ideal

import (
	"reflect"
	"testing"
)

// TestKeyCoversEveryExportedField perturbs each exported field of Config
// in turn and requires the canonical key to change (or, for
// RecordTimes, the config to become non-memoizable). It is the dynamic
// counterpart of the keycover static analyzer (internal/lint): keycover
// proves every field is referenced by Key, this test proves the
// reference actually distinguishes values, so the runner's artifact
// cache never serves one configuration's grid for another's.
func TestKeyCoversEveryExportedField(t *testing.T) {
	base, ok := (Config{}).Key()
	if !ok {
		t.Fatal("zero Config must be memoizable")
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		var c Config
		v := reflect.ValueOf(&c).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			// 13 dodges the one default the key canonicalizes (Width 16).
			v.SetInt(13)
		default:
			t.Fatalf("do not know how to perturb field %s (%s); extend this test", f.Name, f.Type)
		}
		k, ok := c.Key()
		if f.Name == "RecordTimes" {
			if ok {
				t.Error("a RecordTimes config must not be memoizable")
			}
			continue
		}
		if !ok {
			t.Fatalf("perturbing %s unexpectedly made the config non-memoizable", f.Name)
		}
		if k == base {
			t.Errorf("Key() does not distinguish configurations differing in %s", f.Name)
		}
	}
}

// TestKeyCanonicalizesDefaults pins the equivalence Key must preserve:
// an explicit width of 16 is the zero width.
func TestKeyCanonicalizesDefaults(t *testing.T) {
	k0, _ := (Config{Model: WRFD, WindowSize: 128}).Key()
	k1, _ := (Config{Model: WRFD, WindowSize: 128, Width: 16}).Key()
	if k0 != k1 {
		t.Errorf("explicit default width changed the key:\n  %s\n  %s", k0, k1)
	}
}

// TestGridFingerprint: the checksum covers every result of the grid and
// their order.
func TestGridFingerprint(t *testing.T) {
	g := Grid{{Model: Oracle, Window: 32, Retired: 10, Cycles: 5, IPC: 2},
		{Model: Base, Window: 32, Retired: 10, Cycles: 8, IPC: 1.25}}
	fp := g.Fingerprint()
	if fp != append(Grid(nil), g...).Fingerprint() {
		t.Error("equal grids have different fingerprints")
	}
	swapped := Grid{g[1], g[0]}
	if swapped.Fingerprint() == fp {
		t.Error("reordered grid shares a fingerprint")
	}
	changed := append(Grid(nil), g...)
	changed[1].Cycles++
	if changed.Fingerprint() == fp {
		t.Error("grid with a changed result shares a fingerprint")
	}
}
