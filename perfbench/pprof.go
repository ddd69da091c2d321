package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile covers what no span does: the ideal schedulers inside
// fig3 jobs and the stages of the detailed core. runtime/pprof writes
// the gzipped protobuf profile format; the few fields needed here are
// decoded directly, so the benchmark needs nothing beyond the standard
// library.

// stack is one sampled call stack, leaf first with inlined frames
// expanded, and the number of samples it took.
type stack struct {
	funcs []string
	n     int64
}

// parseProfile decodes a gzipped pprof CPU profile into its stacks.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string table index
	var strs []string
	err = walk(raw, func(field, wire int, v uint64, b []byte) error {
		switch {
		case field == 2 && wire == 2: // Sample
			var s sample
			err := walk(b, func(field, wire int, v uint64, b []byte) error {
				vals, err := repeated(wire, v, b)
				if err != nil {
					return err
				}
				switch field {
				case 1:
					s.locs = append(s.locs, vals...)
				case 2:
					if s.n == 0 && len(vals) > 0 {
						s.n = int64(vals[0]) // the first value is the sample count
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case field == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := walk(b, func(field, wire int, v uint64, b []byte) error {
				switch {
				case field == 1 && wire == 0:
					id = v
				case field == 4 && wire == 2: // Line
					return walk(b, func(field, wire int, v uint64, _ []byte) error {
						if field == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case field == 5 && wire == 2: // Function
			var id, name uint64
			err := walk(b, func(field, wire int, v uint64, _ []byte) error {
				if wire == 0 {
					switch field {
					case 1:
						id = v
					case 2:
						name = v
					}
				}
				return nil
			})
			funcName[id] = name
			return err
		case field == 6 && wire == 2: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{n: s.n}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function name index %d out of range", idx)
				}
				st.funcs = append(st.funcs, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walk calls fn for every field of one protobuf message: v for varint
// and fixed-width fields, the payload for length-delimited ones.
func walk(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated integer field in either encoding: one
// varint, or a packed run of them.
func repeated(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// profileShare returns the percentage of a profile's samples whose
// stack has a frame in a function whose name starts with prefix.
func profileShare(data []byte, prefix string) (float64, error) {
	stacks, err := parseProfile(data)
	if err != nil {
		return 0, err
	}
	var in, total int64
	for _, s := range stacks {
		total += s.n
		for _, f := range s.funcs {
			if strings.HasPrefix(f, prefix) {
				in += s.n
				break
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return 100 * float64(in) / float64(total), nil
}

// stepFunc advances the detailed core by one cycle; each pipeline stage
// is one of its direct callees.
const stepFunc = "cisim/internal/ooo.(*machine).step"

// stageFuncs maps each direct callee of step to its stage name.
var stageFuncs = map[string]string{
	"cisim/internal/ooo.(*machine).retireStage":   "retire",
	"cisim/internal/ooo.(*window).refresh":        "refresh",
	"cisim/internal/ooo.(*machine).goldSync":      "goldsync",
	"cisim/internal/ooo.(*machine).completeStage": "complete",
	"cisim/internal/ooo.(*machine).recoveryStage": "recovery",
	"cisim/internal/ooo.(*machine).issueStage":    "issue",
	"cisim/internal/ooo.(*machine).dispatchStage": "dispatch",
	"cisim/internal/ooo.(*machine).fetchStage":    "fetch",
}

// stageCounts adds, per stage, the samples whose innermost step frame
// calls directly into that stage, and returns the samples under step.
func stageCounts(stacks []stack, counts map[string]int64) (underStep int64) {
	for _, s := range stacks {
		for i, f := range s.funcs {
			if f != stepFunc {
				continue
			}
			underStep += s.n
			if i > 0 {
				if st, ok := stageFuncs[s.funcs[i-1]]; ok {
					counts[st] += s.n
				}
			}
			break
		}
	}
	return underStep
}
