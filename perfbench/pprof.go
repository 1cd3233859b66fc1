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

// The host-share layers, in report order. Every CPU-profile sample is
// attributed to exactly one of them, so the shares sum to 1.
var hostLayers = []string{"sim", "storage", "noftl", "sched", "flash", "serve", "workload", "runtime"}

// layerOf maps a profiled function to its layer, or "" when the frame
// belongs to no layer and attribution should continue outward. Layers
// are the noftl/internal packages; the flash-management helpers
// (ftl, region, delta) count as noftl and the NAND model as flash. The
// benchmark's own package (main, or noftl/perfbench in its test binary)
// drives the load and counts as workload. Cross-cutting helpers (ioreq,
// stats, telemetry, trace) are skipped.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "noftl/perfbench.") {
		return "workload"
	}
	rest, ok := strings.CutPrefix(fn, "noftl/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "sim", "storage", "noftl", "sched", "flash", "serve", "workload":
		return pkg
	case "ftl", "region", "delta":
		return "noftl"
	case "nand", "blockdev":
		return "flash"
	}
	return ""
}

// hostShares attributes the samples of a gzipped CPU profile (the
// runtime/pprof format): each sample goes to the innermost frame that
// belongs to a layer, or to "runtime" when none does. It returns the
// share of samples per layer and the sample count.
func hostShares(gz []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.funcName(fn)); l != "" {
					layer = l
					break frames
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range hostLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total, nil
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcs    map[uint64]int64    // function id → name string index
	strs     []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// parseProfile decodes the fields of a gzipped profile.proto message
// that attribution uses: samples (location ids and first value),
// locations (their line entries' function ids), functions and the
// string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s sample
			var first = true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					vals := appendPacked(nil, wire, v, b)
					if first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendPacked appends a repeated varint field's values, packed (wire
// type 2) or not (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
