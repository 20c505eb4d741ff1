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

// cpuModules are the groups the CPU profile's self time is reported
// under: the simulator's internal packages on the kill-chain path,
// the Go runtime, the benchmark itself, and everything else.
var cpuModules = []string{
	"sim", "netsim", "core", "container", "procvm", "exploit", "attacker",
	"binaries", "mirai", "p2pbot", "dht", "churn", "shttp", "dnsmsg",
	"dhcpv6", "obs", "metrics", "resources", "runtime", "bench", "other",
}

// moduleOf maps a profiled function name to its cpuModules group.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: the shape may hold slashes
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		pkg = fn[:slash+1+i]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "ddosim/internal/"):
		m := strings.TrimPrefix(pkg, "ddosim/internal/")
		if i := strings.IndexByte(m, '/'); i >= 0 {
			m = m[:i]
		}
		for _, known := range cpuModules {
			if m == known {
				return m
			}
		}
	}
	return "other"
}

// moduleSelfSeconds decodes a gzipped pprof CPU profile, as written
// by runtime/pprof, and sums each sample's CPU time under the module
// of its leaf function (the innermost inlined frame of its first
// location).
func moduleSelfSeconds(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The value to sum is the one whose type is "cpu" (nanoseconds).
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if len(s.locs) == 0 || vi >= len(s.values) {
			continue
		}
		name := ""
		if lines := p.locations[s.locs[0]]; len(lines) > 0 {
			name = p.str(p.functions[lines[0]])
		}
		out[moduleOf(name)] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// profile is the subset of profile.proto the module split needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []profSample
	locations   map[uint64][]uint64 // location id → function id per line, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fValueTypeType      = 1
	fSampleLocationID   = 1
	fSampleValue        = 2
	fLocationID         = 1
	fLocationLine       = 4
	fLineFunctionID     = 1
	fFunctionID         = 1
	fFunctionName       = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case fProfileSampleType:
			var typ int64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case fProfileSample:
			var s profSample
			err := eachField(msg, func(n int, v uint64, sub []byte) error {
				switch n {
				case fSampleLocationID:
					return appendVarints(&s.locs, v, sub)
				case fSampleValue:
					var vs []uint64
					if err := appendVarints(&vs, v, sub); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n int, v uint64, sub []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					var fn uint64
					err := eachField(sub, func(n int, v uint64, _ []byte) error {
						if n == fLineFunctionID {
							fn = v
						}
						return nil
					})
					fns = append(fns, fn)
					return err
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field's values: one value
// when it arrived unpacked (v), all of them when packed (msg).
func appendVarints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or, for a length-delimited
// field, its bytes (msg is nil for varints). Fixed-width fields are
// skipped.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 5: // 32-bit
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}
