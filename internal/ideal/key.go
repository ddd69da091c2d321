package ideal

import (
	"fmt"
	"hash/fnv"
)

// Key returns the canonical string form of the configuration for the
// runner's artifact cache, and whether the configuration is memoizable
// at all. Spelled-out defaults share a key with their zero forms (Width
// 16). A RecordTimes configuration is not memoizable: its per-entry
// arrays are trace-sized debugging output, not a figure. Every exported
// field is read here so the keycover analyzer (internal/lint) can prove
// none is left out of the address.
func (c Config) Key() (string, bool) {
	if c.RecordTimes {
		return "", false
	}
	width := c.Width
	if width == 0 {
		width = 16
	}
	return fmt.Sprintf("model=%d window=%d width=%d maxcycles=%d",
		int(c.Model), c.WindowSize, width, c.MaxCycles), true
}

// Grid is the result of one sweep of configurations over one prepared
// trace, in the order the configurations were given: the unit the
// runner's artifact cache memoizes and persists for Figure 3.
type Grid []Result

// Fingerprint returns an integrity checksum of the grid for the
// runner's artifact cache. Results of memoized configurations carry no
// per-entry arrays, so their %+v rendering is a complete, deterministic
// serialization.
func (g Grid) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, r := range g {
		fmt.Fprintf(h, "%+v;", r)
	}
	return h.Sum64()
}
