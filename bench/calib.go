package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"sort"
	"time"
)

// calRefS is what calibrate takes on the 2-core 2.1 GHz Xeon host in its
// usual state. Times are reported as if the host ran at that speed.
const calRefS = 0.25

// hostSpeed is the speed of the host while a rep ran, relative to the
// reference: the calibration work's reference time over its time measured
// just before the rep's process started and just after it ended. The shared
// host changes speed by 30–40 % for minutes at a time (the same rep's wall_s
// drifted from 2.6 s to 1.9 s over twelve minutes) and the calibration work
// follows it: over 80 runs in a steady hour the run medians of wall_s spread
// by 6.5 % of their median on average once multiplied by hostSpeed and by
// 9.3 % as the clock read them, and the medians of two sets of ten runs
// differed by at most 2.7 % against 8.9 %. The end-to-end times are
// therefore the clock's readings times hostSpeed; the readings themselves
// are reported beside them.
func hostSpeed(rep *repResult) float64 { return calRefS / rep.CalS }

// calibrate times a fixed piece of work that uses nothing but the standard
// library — compressing and decompressing record-like bytes, counting
// string keys in a map, sorting them — so its duration follows the speed of
// the host at this moment. It runs in a process of its own (modeCalib), so
// it shares neither a heap nor a resident high-water mark with a workload:
// nothing a rep allocates can move it, and it cannot move peak_rss_mb.
func calibrate() (time.Duration, error) {
	const records = 150_000
	var raw bytes.Buffer
	keys := make([]string, 0, records)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64*: fixed, seedless
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return state * 0x2545f4914f6cdd1d
	}
	var rec [48]byte
	for i := 0; i < records; i++ {
		// Low ids dominate, as peers and CIDs do in a trace.
		id := next() % (1 + next()%20_000)
		binary.LittleEndian.PutUint64(rec[0:], uint64(i)*1_000_003)
		binary.LittleEndian.PutUint64(rec[8:], id*0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(rec[16:], id)
		binary.LittleEndian.PutUint64(rec[24:], next()%3)
		raw.Write(rec[:])
		keys = append(keys, string(rec[8:24]))
	}

	t0 := time.Now()
	var packed bytes.Buffer
	zw := gzip.NewWriter(&packed)
	if _, err := zw.Write(raw.Bytes()); err != nil {
		return 0, err
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	zr, err := gzip.NewReader(&packed)
	if err != nil {
		return 0, err
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return 0, err
	}
	counts := make(map[string]int)
	for _, k := range keys {
		counts[k]++
	}
	sort.Strings(keys)
	return time.Since(t0), nil
}
