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

// The benchmark reads its own CPU profiles to attribute host time to the
// simulator's packages without a dependency on a profile library. It
// decodes only what a flat per-function share needs from the profile.proto
// wire format: samples (location ids, values), locations (their lines'
// function ids), functions (name string index) and the string table.

// profileFlat returns the CPU samples of a gzipped runtime/pprof profile
// keyed by the function of each sample's leaf frame (the innermost inlined
// function at the sampled location).
func profileFlat(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], count: vals[0]})
			}
		case 4: // Location
			var id, fn uint64
			var haveLine bool
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.loc]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += s.count
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// hostModules are the packages host_share reports, in output order.
var hostModules = []string{"simtime", "pml", "ptlelan4", "elan4", "fabric", "mpi", "obs", "trace", "goruntime"}

// moduleOf maps a profiled function name to the module host_share
// charges it to: a simulator package by its last path element, the Go
// runtime (scheduler, channels, allocator, GC, memmove) as "goruntime",
// and anything else as "".
func moduleOf(fn string) string {
	const prefix = "qsmpi/internal/"
	if rest, ok := strings.CutPrefix(fn, prefix); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "goruntime"
	}
	return ""
}
