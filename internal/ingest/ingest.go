// Package ingest implements the streaming trace-ingestion pipeline that the
// paper's real deployment needed at scale: hundreds of millions of want-list
// entries per day cannot be accumulated in RAM and batch-processed. The
// package decouples capture from analysis with three pieces:
//
//   - Sink: the write side. Monitors push entries into a Sink as they are
//     observed; a MemorySink holds them in RAM for short scenarios,
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
	"slices"

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
// as do SegmentStore.Query iterators and StreamUnifier itself. A source is
// read by one goroutine at a time, which may not be the caller's: Copy
// reads its source on a trace.ReadAhead's goroutine.
type EntrySource interface {
	Read() (trace.Entry, error)
}

// MemorySink accumulates entries in memory, for short scenarios, examples
// and tests that read a monitor's whole trace back; use a SegmentStore when
// trace volume matters.
type MemorySink struct {
	entries []trace.Entry
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Write appends the entry.
func (s *MemorySink) Write(e trace.Entry) error {
	s.entries = append(s.entries, e)
	return nil
}

// Snapshot returns a copy of the accumulated entries, nil if there are
// none. The copy is owned by the caller: mutating or appending to it cannot
// corrupt the sink.
func (s *MemorySink) Snapshot() []trace.Entry {
	return slices.Clone(s.entries)
}

// Reset discards the accumulated entries.
func (s *MemorySink) Reset() { s.entries = nil }

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
// copied. It is the one pass of an analysis (a report driver over a
// StreamUnifier) and the plumbing for exports that never materialise the
// trace in memory.
//
// src is read through a trace.ReadAhead, so producing entries overlaps
// writing them: dst takes one batch while src fills the next, on a
// goroutine of its own. That goroutine has exited when Copy returns. A
// source error arrives after exactly the entries before it; after a failed
// Copy, src may have been read up to 1,536 entries past the last one
// written.
func Copy(dst Sink, src EntrySource) (int, error) {
	ra := trace.NewReadAhead(src)
	defer ra.Close()
	n := 0
	for {
		e, err := ra.Read()
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
