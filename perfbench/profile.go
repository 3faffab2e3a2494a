package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile (gzipped profile.proto) far
// enough to attribute each sample's CPU time to one module of the
// program. The profile format needs no library: samples carry location
// IDs, locations carry (possibly inlined) lines, lines carry function IDs,
// functions carry an index into the string table.

// cpuProfile is the decoded part of a CPU profile: every sample's stack
// as function names, leaf first, with its CPU nanoseconds.
type cpuProfile struct {
	Samples []cpuSample
}

type cpuSample struct {
	Stack []string // leaf first; inlined frames expanded, innermost first
	Nanos int64
}

type pbLocation struct{ funcIDs []uint64 }

// parseCPUProfile decodes a gzipped pprof CPU profile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locations = map[uint64]pbLocation{}
		functions = map[uint64]int64{} // function ID -> name string index
		strs      []string
		valueIdx  = -1
		types     [][2]int64 // sample_type (type, unit) string indexes
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var loc pbLocation
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							loc.funcIDs = append(loc.funcIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = loc
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			functions[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range types {
		if t[1] >= 0 && int(t[1]) < len(strs) && strs[t[1]] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type (not a CPU profile)")
	}
	name := func(fid uint64) string {
		si, ok := functions[fid]
		if !ok || si < 0 || int(si) >= len(strs) {
			return "?"
		}
		return strs[si]
	}
	p := &cpuProfile{Samples: make([]cpuSample, 0, len(samples))}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			continue
		}
		cs := cpuSample{Nanos: s.values[valueIdx]}
		for _, lid := range s.locs {
			for _, fid := range locations[lid].funcIDs {
				cs.Stack = append(cs.Stack, name(fid))
			}
		}
		p.Samples = append(p.Samples, cs)
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := readVarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n <= 0 {
			return errors.New("profile: truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = readVarint(b)
			if n <= 0 {
				return errors.New("profile: truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// Module buckets that are not packages of the program.
const (
	bucketGC      = "gc"
	bucketNetHTTP = "net_http"
)

const radarInternal = "radar/internal/"

// gcFrames mark time the Go runtime spends collecting garbage: the
// background mark workers and sweeper, and mark assists charged to
// allocating goroutines.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// moduleOf attributes one stack: walking from the leaf, the first GC
// frame makes it gc's, the first radar/internal/<module> frame makes it
// that module's; a stack with neither (the HTTP client and server
// machinery, the scheduler, the benchmark's own loops) counts as
// net_http. Sub-packages count toward their parent (live/check is live).
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return bucketGC
		}
		if rest, ok := strings.CutPrefix(fn, radarInternal); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return bucketNetHTTP
}

// attribute sums the profile's CPU seconds per module bucket.
func (p *cpuProfile) attribute() (map[string]float64, float64) {
	out := map[string]float64{}
	var total float64
	for _, s := range p.Samples {
		sec := float64(s.Nanos) / 1e9
		out[moduleOf(s.Stack)] += sec
		total += sec
	}
	return out, total
}
