package ingest

import (
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bitswapmon/internal/trace"
)

// aheadLimit is how far past the last entry handed out a read-ahead may
// have read its source: the batch being handed out and two filled behind
// it, 512 entries each.
const aheadLimit = 1536

// countingSource yields entries and then err (io.EOF when nil), counting
// every Read. The count is atomic so that a read after Copy returned
// fails the test rather than racing it.
type countingSource struct {
	entries []trace.Entry
	err     error
	reads   atomic.Int64
}

func (s *countingSource) Read() (trace.Entry, error) {
	i := s.reads.Add(1) - 1
	if i < int64(len(s.entries)) {
		return s.entries[i], nil
	}
	if s.err != nil {
		return trace.Entry{}, s.err
	}
	return trace.Entry{}, io.EOF
}

// failingSink accepts limit entries and fails every Write after them.
type failingSink struct {
	MemorySink
	limit int
	err   error
}

func (s *failingSink) Write(e trace.Entry) error {
	if len(s.entries) >= s.limit {
		return s.err
	}
	return s.MemorySink.Write(e)
}

// readAheadSizes straddle the batch boundaries: empty, one entry, one
// batch and its neighbours, three batches and one more, and many batches.
var readAheadSizes = []int{0, 1, 511, 512, 513, 1537, 5000}

func readAheadTrace(n int) []trace.Entry {
	return randomMonitorTrace(rand.New(rand.NewSource(int64(n))), "us", n, time.Hour)
}

// TestCopyMatchesSerialRead: Copy through the read-ahead hands the sink
// exactly the entries, in the order, of a serial read of the source.
func TestCopyMatchesSerialRead(t *testing.T) {
	for _, n := range readAheadSizes {
		in := readAheadTrace(n)
		want, err := Drain(SliceSource(in))
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		dst := NewMemorySink()
		got, err := Copy(dst, SliceSource(in))
		if err != nil || got != n {
			t.Fatalf("%d entries: Copy = %d, %v", n, got, err)
		}
		out := dst.Snapshot()
		if len(out) != len(want) {
			t.Fatalf("%d entries: sink holds %d", n, len(out))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%d entries: entry %d is %+v, want %+v", n, i, out[i], want[i])
			}
		}
		settleGoroutines(t, "after Copy", base)
	}
}

// TestCopySourceError: a source error after k entries reaches Copy after
// exactly those k, and a ReadAhead repeats it on every later Read.
func TestCopySourceError(t *testing.T) {
	boom := errors.New("boom")
	for _, k := range readAheadSizes {
		in := readAheadTrace(k)
		dst := NewMemorySink()
		n, err := Copy(dst, &countingSource{entries: in, err: boom})
		if n != k || !errors.Is(err, boom) {
			t.Fatalf("error after %d entries: Copy = %d, %v", k, n, err)
		}
		if len(dst.entries) != k {
			t.Fatalf("error after %d entries: sink holds %d", k, len(dst.entries))
		}

		ra := trace.NewReadAhead(&countingSource{entries: in, err: boom})
		for i := 0; i < k; i++ {
			if _, err := ra.Read(); err != nil {
				t.Fatalf("error after %d entries: Read %d: %v", k, i, err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := ra.Read(); !errors.Is(err, boom) {
				t.Fatalf("error after %d entries: Read %d past them = %v, want boom", k, i, err)
			}
		}
		ra.Close()
	}
}

// TestCopyStopsOnSinkError: a sink error ends Copy at once. When Copy
// returns, its goroutine has exited and the source has been read at most
// aheadLimit entries past the last one written, and is not read again.
func TestCopyStopsOnSinkError(t *testing.T) {
	boom := errors.New("sink full")
	for _, limit := range []int{0, 1, 511, 512, 600, 2000} {
		base := runtime.NumGoroutine()
		src := &countingSource{entries: readAheadTrace(5000)}
		dst := &failingSink{limit: limit, err: boom}
		n, err := Copy(dst, src)
		if n != limit || !errors.Is(err, boom) {
			t.Fatalf("sink failing after %d: Copy = %d, %v", limit, n, err)
		}
		reads := src.reads.Load()
		if reads > int64(n+aheadLimit) {
			t.Errorf("sink failing after %d: source read %d times, more than %d ahead", limit, reads, aheadLimit)
		}
		settleGoroutines(t, "after a failed Copy", base)
		time.Sleep(5 * time.Millisecond)
		if again := src.reads.Load(); again != reads {
			t.Errorf("sink failing after %d: source read %d more times after Copy returned", limit, again-reads)
		}
	}
}

// TestReadAheadCloseBeforeEOF: Close stops the goroutine mid-stream, Read
// fails after it, and a second Close changes nothing.
func TestReadAheadCloseBeforeEOF(t *testing.T) {
	for _, taken := range []int{0, 1, 1000} {
		base := runtime.NumGoroutine()
		src := &countingSource{entries: readAheadTrace(5000)}
		ra := trace.NewReadAhead(src)
		for i := 0; i < taken; i++ {
			if _, err := ra.Read(); err != nil {
				t.Fatalf("Read %d: %v", i, err)
			}
		}
		if err := ra.Close(); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, "after Close", base)
		reads := src.reads.Load()
		if reads > int64(taken+aheadLimit) {
			t.Errorf("%d taken: source read %d times, more than %d ahead", taken, reads, aheadLimit)
		}
		if _, err := ra.Read(); err == nil || err == io.EOF {
			t.Errorf("%d taken: Read after Close = %v, want an error", taken, err)
		}
		if err := ra.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
		if _, err := ra.Read(); err == nil || err == io.EOF {
			t.Errorf("%d taken: Read after a second Close = %v, want an error", taken, err)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("%d taken: %d goroutines after a second Close, %d before", taken, got, base)
		}
		if again := src.reads.Load(); again != reads {
			t.Errorf("%d taken: source read %d more times after Close", taken, again-reads)
		}
	}
}
