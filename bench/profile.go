package main

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// Profile attribution for the *.cpu_share metrics. A runtime/pprof CPU
// profile is a gzipped protobuf (github.com/google/pprof/proto/profile.proto);
// this file decodes the four message types attribution needs — Sample,
// Location, Line, Function — and the string table, and nothing else, so the
// benchmark adds no module dependency.

// Buckets other than a module name that a CPU sample can be charged to.
const (
	bucketGC      = "gc"      // background GC workers
	bucketHarness = "harness" // the benchmark's own frames, no repo frame below
	bucketOther   = "other"   // scheduler, idle and signal frames
)

const repoPrefix = "bitswapmon/internal/"

// cpuShares reads the CPU profile at path and returns the share of samples
// charged to each bucket. A sample is charged to the leaf-most frame under
// bitswapmon/internal/<module>, so runtime and standard-library frames go to
// their nearest repo caller; simnet counts as engine, being the serial
// engine's implementation. Background GC workers have no repo caller and
// form their own bucket.
func cpuShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}

	// The bucket of a function name, "" when the frame decides nothing.
	bucketOf := make(map[uint64]string, len(p.functions))
	for id, nameIdx := range p.functions {
		if nameIdx < 0 || int(nameIdx) >= len(p.strings) {
			return nil, fmt.Errorf("profile %s: function %d names string %d of %d", path, id, nameIdx, len(p.strings))
		}
		name := p.strings[nameIdx]
		switch {
		case strings.HasPrefix(name, repoPrefix):
			module := name[len(repoPrefix):]
			module = module[:strings.IndexAny(module+".", "./")]
			if module == "simnet" {
				module = "engine"
			}
			bucketOf[id] = module
		case name == "runtime.gcBgMarkWorker":
			bucketOf[id] = bucketGC
		case strings.HasPrefix(name, "main."):
			bucketOf[id] = bucketHarness
		}
	}

	shares := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		bucket := bucketOther
	stack:
		for _, loc := range s.locations { // leaf first
			for _, fn := range p.locations[loc] { // innermost inlined call first
				switch b := bucketOf[fn]; b {
				case "":
				case bucketHarness:
					bucket = bucketHarness
				default:
					bucket = b
					break stack
				}
			}
		}
		shares[bucket] += float64(s.value)
		total += float64(s.value)
	}
	// A run too short to be sampled has no shares to report.
	for b := range shares {
		shares[b] /= total
	}
	return shares, nil
}

type profileSample struct {
	locations []uint64
	value     int64 // the first sample type: the sample count
}

type profile struct {
	samples   []profileSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → index of its name
	strings   []string
}

// Field numbers of profile.proto.
const (
	profileSampleField   = 2
	profileLocationField = 4
	profileFunctionField = 5
	profileStringField   = 6

	sampleLocationField = 1
	sampleValueField    = 2

	locationIDField   = 1
	locationLineField = 4
	lineFunctionField = 1

	functionIDField   = 1
	functionNameField = 2
)

func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case profileSampleField:
			var s profileSample
			var values []uint64
			err := eachField(b, func(field int, v uint64, b []byte) error {
				switch field {
				case sampleLocationField:
					return appendVarints(&s.locations, v, b)
				case sampleValueField:
					return appendVarints(&values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profileLocationField:
			var id uint64
			var fns []uint64
			err := eachField(b, func(field int, v uint64, b []byte) error {
				switch field {
				case locationIDField:
					id = v
				case locationLineField:
					return eachField(b, func(field int, v uint64, _ []byte) error {
						if field == lineFunctionField {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case profileFunctionField:
			var id uint64
			var name int64
			err := eachField(b, func(field int, v uint64, _ []byte) error {
				switch field {
				case functionIDField:
					id = v
				case functionNameField:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profileStringField:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped; profile.proto has none this decoder needs.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("protobuf: bad field key")
		}
		data = data[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("protobuf: bad varint in field %d", field)
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(data) < 8 {
				return fmt.Errorf("protobuf: short 64-bit field %d", field)
			}
			data = data[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("protobuf: bad length in field %d", field)
			}
			if err := fn(field, 0, data[n:n+int(l)]); err != nil {
				return err
			}
			data = data[n+int(l):]
		case 5: // 32-bit
			if len(data) < 4 {
				return fmt.Errorf("protobuf: short 32-bit field %d", field)
			}
			data = data[4:]
		default:
			return fmt.Errorf("protobuf: unsupported wire type %d in field %d", key&7, field)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's contribution: the packed
// run in b, or the single value v when the encoder did not pack.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("protobuf: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
