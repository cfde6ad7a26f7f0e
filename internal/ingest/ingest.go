// Package ingest implements the streaming trace-ingestion pipeline that the
// paper's real deployment needed at scale: hundreds of millions of want-list
// entries per day cannot be accumulated in RAM and batch-processed. The
// package decouples capture from analysis with three pieces:
//
//   - Sink: the write side. Monitors push entries into a Sink as they are
//     observed; a MemorySink preserves the old accumulate-in-RAM behaviour,
//     a SegmentStore streams entries to time-partitioned compressed segment
//     files, and Tee fans one stream out to several sinks (e.g. disk plus
//     online statistics).
//   - EntrySource: the read side. Segment queries, trace files and slices
//     all yield entries through the same pull interface, and StreamUnifier
//     merges several monitor sources into the paper's unified trace
//     (Sec. IV-B dedup flags) using bounded sliding-window state instead of
//     a global sort.
//   - OnlineStats: one-pass, exact aggregation (totals, per-type counts and
//     request-type counts per time bucket). Kept only because the benchmark
//     harness builds one; the online report is built from the report
//     package's own accumulators.
//
// With these pieces, trace volume is bounded by disk, not RAM: the largest
// resident data structure is one segment's write buffer plus the unifier's
// 31-second window.
package ingest

import (
	"errors"
	"io"

	"bitswapmon/internal/trace"
)

// Sink consumes trace entries as they are observed. Write must be safe to
// call from the simulation's event loop (it is not required to be
// goroutine-safe; the simulator is single-threaded). *trace.Writer satisfies
// Sink, so a raw binary trace file can be used as a sink directly.
type Sink interface {
	Write(e trace.Entry) error
}

// EntrySource yields trace entries in nondecreasing timestamp order and
// returns io.EOF after the last entry. *trace.Reader satisfies EntrySource,
// as do SegmentStore.Query iterators and StreamUnifier itself.
type EntrySource interface {
	Read() (trace.Entry, error)
}

// MemorySink accumulates entries in memory, preserving the seed behaviour
// where a monitor holds its whole trace in RAM. Use it for short scenarios
// and tests; use a SegmentStore when trace volume matters.
//
// Storage is chunked: a flat slice regrows geometrically, and past the
// runtime's large-size threshold each growth step reallocates, zeroes and
// copies the entire accumulated trace — for a multi-megabyte trace that
// regrowth dominated the event loop's allocation profile. Fixed-size chunks
// bound every append to one small block allocation.
type MemorySink struct {
	chunks [][]trace.Entry
	n      int
}

// memChunk is the full chunk capacity. Early chunks double up from a small
// start so tiny test sinks stay cheap.
const memChunk = 4096

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Write appends the entry.
func (s *MemorySink) Write(e trace.Entry) error {
	k := len(s.chunks) - 1
	if k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
		c := 64
		if k >= 0 {
			if c = cap(s.chunks[k]) * 2; c > memChunk {
				c = memChunk
			}
		}
		s.chunks = append(s.chunks, make([]trace.Entry, 0, c))
		k++
	}
	s.chunks[k] = append(s.chunks[k], e)
	s.n++
	return nil
}

// Len returns the number of entries accumulated so far.
func (s *MemorySink) Len() int { return s.n }

// Snapshot returns a copy of the accumulated entries. The copy is owned by
// the caller: mutating or appending to it cannot corrupt the sink.
func (s *MemorySink) Snapshot() []trace.Entry { return s.Since(0) }

// Since returns a copy of the entries from index n onward (a cheap way to
// read only what arrived after a recorded Len checkpoint).
func (s *MemorySink) Since(n int) []trace.Entry {
	if n < 0 {
		n = 0
	}
	if n >= s.n {
		return nil
	}
	out := make([]trace.Entry, 0, s.n-n)
	for _, c := range s.chunks {
		if n >= len(c) {
			n -= len(c)
			continue
		}
		out = append(out, c[n:]...)
		n = 0
	}
	return out
}

// Reset discards the accumulated entries and returns them to the caller
// (which takes ownership).
func (s *MemorySink) Reset() []trace.Entry {
	out := s.Since(0)
	s.chunks, s.n = nil, 0
	return out
}

// tee fans writes out to several sinks.
type tee struct {
	sinks []Sink
}

// Tee returns a sink that writes every entry to each of sinks in order. All
// sinks are attempted even after an error; the errors are joined.
func Tee(sinks ...Sink) Sink { return &tee{sinks: sinks} }

func (t *tee) Write(e trace.Entry) error {
	var errs []error
	for _, s := range t.sinks {
		if err := s.Write(e); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// sliceSource yields a slice's entries in order.
type sliceSource struct {
	entries []trace.Entry
	pos     int
}

// SliceSource returns an EntrySource over entries. The slice is not copied;
// the caller must not mutate it while reading.
func SliceSource(entries []trace.Entry) EntrySource {
	return &sliceSource{entries: entries}
}

func (s *sliceSource) Read() (trace.Entry, error) {
	if s.pos >= len(s.entries) {
		return trace.Entry{}, io.EOF
	}
	e := s.entries[s.pos]
	s.pos++
	return e, nil
}

// Copy streams src into dst until io.EOF, returning the number of entries
// copied. It is the plumbing for disk-to-disk exports (e.g. segment store to
// flat trace file) that never materialise the trace in memory.
func Copy(dst Sink, src EntrySource) (int, error) {
	n := 0
	for {
		e, err := src.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := dst.Write(e); err != nil {
			return n, err
		}
		n++
	}
}

// Drain reads src to completion and returns all entries. It defeats the
// purpose of streaming — use it only where an analysis genuinely needs the
// full trace resident (e.g. bootstrap resampling).
func Drain(src EntrySource) ([]trace.Entry, error) {
	var out []trace.Entry
	for {
		e, err := src.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}
