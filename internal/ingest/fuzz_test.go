package ingest

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// fuzzSeedFooter renders a structurally valid sealed-segment tail (payload
// + footer blob + length + magic) so the corpus starts one mutation away
// from real framing.
func fuzzSeedFooter(f *testing.F) []byte {
	ft := newFooter()
	ft.Entries = 42
	ft.First = time.Unix(0, 1).UTC()
	ft.Last = time.Unix(0, 2).UTC()
	var buf bytes.Buffer
	buf.WriteString("gzip payload stand-in")
	if err := writeFooter(&buf, *ft); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFooter hammers sealed-segment footer parsing: arbitrary file
// contents must come back as (Footer, nil) or an error, never a panic or
// an unbounded allocation.
func FuzzReadFooter(f *testing.F) {
	seed := fuzzSeedFooter(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-1]) // clipped magic
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "seg.trace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = ReadFooter(path)
	})
}

// fuzzUnifyMonitors bounds the monitor count of FuzzUnifyFlags.
const fuzzUnifyMonitors = 5

// fuzzUnifyEntries decodes fuzz input, three bytes an entry, into
// per-monitor traces (in order of first appearance, each time-ordered) and
// the one arrival-ordered stream a UnifySink would see. The bytes are the
// monitor, the key (node in bits 0–1, CID in bits 2–4, type in bits 5–6) and
// the gap since the previous entry, whose top two bits pick a scale — 0:
// none (equal timestamps), 1: ×100 ms (around the 5 s inter-monitor window),
// 2: ×1 s (around the 31 s rebroadcast window), 3: 31 s + ×1 s (past every
// window, so records expire and their slab slots are reused).
func fuzzUnifyEntries(data []byte) (traces [][]trace.Entry, merged []trace.Entry) {
	const maxEntries = 512
	byMonitor := make(map[byte]int)
	at := t0
	for ; len(data) >= 3 && len(merged) < maxEntries; data = data[3:] {
		mon, key, gap := data[0]%fuzzUnifyMonitors, data[1], data[2]
		switch n := time.Duration(gap & 63); gap >> 6 {
		case 1:
			at = at.Add(n * 100 * time.Millisecond)
		case 2:
			at = at.Add(n * time.Second)
		case 3:
			at = at.Add(trace.RebroadcastWindow + n*time.Second)
		}
		e := entry(fmt.Sprintf("m%d", mon), key&3, fmt.Sprintf("c%d", (key>>2)&7), wire.EntryType((key>>5)%3+1), at)
		i, ok := byMonitor[mon]
		if !ok {
			i = len(traces)
			byMonitor[mon] = i
			traces = append(traces, nil)
		}
		traces[i] = append(traces[i], e)
		merged = append(merged, e)
	}
	return traces, merged
}

// FuzzUnifyFlags holds the online unifier to the batch oracle on arbitrary
// streams: order and flags through both StreamUnifier and UnifySink must
// equal trace.Unify, and the state must never track more requests than
// there are distinct keys inside the last rebroadcast window — while
// monitors appear mid-stream (the per-monitor slots re-stride), timestamps
// repeat, and gaps beyond the window expire records and recycle their
// slots.
func FuzzUnifyFlags(f *testing.F) {
	const ms100, sec, far = 1 << 6, 2 << 6, 3 << 6
	// TestStreamUnifierMatchesBatchOnFixtures: us x@0, de x@2s, us x@30s,
	// us x@90s, de x@120s.
	f.Add([]byte{
		0, 0, 0,
		1, 0, ms100 | 20,
		0, 0, sec | 28,
		0, 0, far | 29,
		1, 0, sec | 30,
	})
	// TestStreamUnifierEquivalenceEqualTimestamps: few timestamps, few keys,
	// every type, two monitors.
	var ties []byte
	for i := 0; i < 60; i++ {
		gap := byte(0)
		if i%15 == 14 {
			gap = sec | 1
		}
		ties = append(ties, byte(i%2), byte(i%3|i%3<<2|i%3<<5), gap)
	}
	f.Add(ties)
	// TestStreamUnifierBoundedState: distinct keys a minute apart.
	var sparse []byte
	for i := 0; i < 96; i++ {
		sparse = append(sparse, 0, byte(i), far|29)
	}
	f.Add(sparse)
	// Five monitors joining one by one over a live key, then silence, then
	// the key again: re-stride with records in flight, expiry, slot reuse.
	f.Add([]byte{
		0, 5, 0,
		1, 5, ms100 | 10,
		2, 5, 0,
		1, 9, sec | 3,
		3, 5, sec | 20,
		4, 5, ms100 | 49,
		0, 5, sec | 31,
		2, 9, far | 0,
		4, 5, 0,
		0, 5, ms100 | 51,
	})
	// Window edges: a second monitor exactly 5 s later, the first again
	// exactly 31 s after itself (both still flagged), then 31.1 s later.
	f.Add([]byte{
		0, 1, 0,
		1, 1, ms100 | 50,
		0, 1, sec | 26,
		0, 1, far | 0,
		0, 1, ms100 | 1,
		0, 1, far | 0,
	})
	// One key observed twice at one timestamp, expired, then two fresh keys
	// competing for its slot.
	f.Add([]byte{
		0, 2, 0,
		1, 2, 0,
		0, 3, far | 5,
		0, 4, 0,
		1, 3, ms100 | 5,
		1, 4, 0,
		0, 3, sec | 2,
	})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		traces, merged := fuzzUnifyEntries(data)
		want := trace.Unify(traces...)

		// inWindow counts the distinct requests observed during the
		// rebroadcast window ending at ts: the most the unifier may track
		// once it has flagged an entry carrying ts.
		inWindow := func(ts time.Time) int {
			keys := make(map[dupKey]bool)
			for _, e := range want {
				if !e.Timestamp.After(ts) && ts.Sub(e.Timestamp) <= trace.RebroadcastWindow {
					keys[dupKey{node: e.NodeID, typ: e.Type, c: e.CID}] = true
				}
			}
			return len(keys)
		}
		same := func(path string, i int, got trace.Entry) {
			t.Helper()
			if i >= len(want) {
				t.Fatalf("%s: entry %d = %+v, trace.Unify has only %d", path, i, got, len(want))
			}
			if got != want[i] {
				t.Fatalf("%s: entry %d = %+v, trace.Unify has %+v", path, i, got, want[i])
			}
		}

		srcs := make([]EntrySource, len(traces))
		for i, tr := range traces {
			srcs[i] = SliceSource(tr)
		}
		u := NewStreamUnifier(srcs...)
		n := 0
		for ; ; n++ {
			e, err := u.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			same("StreamUnifier", n, e)
			if got, most := len(u.state.index), inWindow(e.Timestamp); got > most {
				t.Fatalf("StreamUnifier tracks %d requests after entry %d, only %d inside the window", got, n, most)
			}
		}
		if n != len(want) {
			t.Fatalf("StreamUnifier emitted %d entries, trace.Unify %d", n, len(want))
		}

		n = 0
		var sink *UnifySink
		sink = NewUnifySink(sinkFunc(func(e trace.Entry) error {
			same("UnifySink", n, e)
			if got, most := len(sink.state.index), inWindow(e.Timestamp); got > most {
				t.Fatalf("UnifySink tracks %d requests at entry %d, only %d inside the window", got, n, most)
			}
			n++
			return nil
		}))
		for _, e := range merged {
			if err := sink.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("UnifySink forwarded %d entries, trace.Unify %d", n, len(want))
		}
	})
}

// sinkFunc adapts a function to Sink.
type sinkFunc func(trace.Entry) error

func (f sinkFunc) Write(e trace.Entry) error { return f(e) }
