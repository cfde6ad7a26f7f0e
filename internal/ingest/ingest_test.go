package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// entry builds a deterministic test entry.
func entry(mon string, node byte, c string, typ wire.EntryType, at time.Time) trace.Entry {
	var id simnet.NodeID
	id[0] = node
	return trace.Entry{
		Timestamp: at,
		Monitor:   mon,
		NodeID:    id,
		Addr:      fmt.Sprintf("3.0.0.%d:4001", node),
		Type:      typ,
		CID:       cid.Sum(cid.DagProtobuf, []byte(c)),
	}
}

// randomMonitorTrace builds a time-ordered trace for one monitor with a
// small key space, so dedup windows actually trigger.
func randomMonitorTrace(rng *rand.Rand, mon string, n int, span time.Duration) []trace.Entry {
	out := make([]trace.Entry, 0, n)
	at := t0
	for i := 0; i < n; i++ {
		at = at.Add(time.Duration(rng.Int63n(int64(span) / int64(n+1))))
		out = append(out, entry(
			mon,
			byte(rng.Intn(4)),
			fmt.Sprintf("c%d", rng.Intn(6)),
			wire.EntryType(rng.Intn(3)+1),
			at,
		))
	}
	return out
}

func TestMemorySinkSnapshotIsStable(t *testing.T) {
	s := NewMemorySink()
	for i := 0; i < 4; i++ {
		if err := s.Write(entry("us", byte(i), "x", wire.WantHave, t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if len(snap) != 4 || len(s.entries) != 4 {
		t.Fatalf("len = %d/%d, want 4", len(snap), len(s.entries))
	}
	// Corrupting the snapshot must not corrupt the sink.
	snap[0].Monitor = "evil"
	snap = append(snap[:1], snap[2:]...)
	if got := s.Snapshot()[0].Monitor; got != "us" {
		t.Errorf("sink corrupted through snapshot: monitor = %q", got)
	}
	if len(s.entries) != 4 {
		t.Errorf("sink length changed: %d", len(s.entries))
	}

	s.Reset()
	if got := s.Snapshot(); got != nil || len(s.entries) != 0 {
		t.Errorf("reset: snapshot=%v len=%d", got, len(s.entries))
	}
}

type failSink struct{ err error }

func (f failSink) Write(trace.Entry) error { return f.err }

func TestTeeWritesAllAndJoinsErrors(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	boom := errors.New("boom")
	tee := Tee(a, failSink{boom}, b)
	err := tee.Write(entry("us", 1, "x", wire.WantHave, t0))
	if !errors.Is(err, boom) {
		t.Errorf("tee error = %v, want boom", err)
	}
	if len(a.entries) != 1 || len(b.entries) != 1 {
		t.Errorf("tee skipped sinks after error: a=%d b=%d", len(a.entries), len(b.entries))
	}
}

func TestCopyAndDrain(t *testing.T) {
	in := []trace.Entry{
		entry("us", 1, "a", wire.WantHave, t0),
		entry("us", 2, "b", wire.Cancel, t0.Add(time.Second)),
	}
	dst := NewMemorySink()
	n, err := Copy(dst, SliceSource(in))
	if err != nil || n != 2 {
		t.Fatalf("copy: n=%d err=%v", n, err)
	}
	out, err := Drain(SliceSource(dst.Snapshot()))
	if err != nil || len(out) != 2 {
		t.Fatalf("drain: n=%d err=%v", len(out), err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d mismatch: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestTraceWriterIsASink(t *testing.T) {
	// *trace.Writer must satisfy Sink so stores can export to flat files.
	var _ Sink = (*trace.Writer)(nil)
	var _ EntrySource = (*trace.Reader)(nil)
	var _ Sink = (*trace.Summarizer)(nil)
	var _ Sink = (*trace.CSVWriter)(nil)
	var _ Sink = (*SegmentStore)(nil)
	var _ Sink = (*OnlineStats)(nil)
	var _ EntrySource = (*QueryIter)(nil)
	var _ EntrySource = (*StreamUnifier)(nil)
}

// settleGoroutines waits until no more than base goroutines run, failing
// after a second: a goroutine that has signalled its exit may take a moment
// to leave the count.
func settleGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
