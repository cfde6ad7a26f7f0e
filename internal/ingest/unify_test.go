package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// streamUnify runs the StreamUnifier over slice sources.
func streamUnify(t *testing.T, traces ...[]trace.Entry) []trace.Entry {
	t.Helper()
	srcs := make([]EntrySource, len(traces))
	for i, tr := range traces {
		srcs[i] = SliceSource(tr)
	}
	out, err := Drain(NewStreamUnifier(srcs...))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStreamUnifierMatchesBatchOnFixtures(t *testing.T) {
	us := []trace.Entry{
		entry("us", 1, "x", wire.WantHave, t0),
		entry("us", 1, "x", wire.WantHave, t0.Add(30*time.Second)), // rebroadcast
		entry("us", 1, "x", wire.WantHave, t0.Add(90*time.Second)), // outside window
	}
	de := []trace.Entry{
		entry("de", 1, "x", wire.WantHave, t0.Add(2*time.Second)), // inter-monitor dup
		entry("de", 1, "x", wire.WantHave, t0.Add(2*time.Minute)),
	}
	batch := trace.Unify(us, de)
	stream := streamUnify(t, us, de)
	if !reflect.DeepEqual(batch, stream) {
		t.Fatalf("mismatch:\nbatch:  %+v\nstream: %+v", batch, stream)
	}
	if stream[1].Flags&trace.FlagInterMonitorDup == 0 {
		t.Error("inter-monitor dup not flagged by stream unifier")
	}
	if stream[2].Flags&trace.FlagRebroadcast == 0 {
		t.Error("rebroadcast not flagged by stream unifier")
	}
}

// TestStreamUnifierEquivalence is the acceptance-criterion test: on
// randomized multi-monitor traces, StreamUnifier output must match batch
// trace.Unify flag-for-flag and in order.
func TestStreamUnifierEquivalence(t *testing.T) {
	monitors := []string{"us", "de", "jp"}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nMon := 1 + rng.Intn(len(monitors))
		traces := make([][]trace.Entry, nMon)
		for i := 0; i < nMon; i++ {
			n := rng.Intn(400)
			// Mix of dense (sub-window) and sparse timestamp spacing so
			// both flag kinds and window expiries are exercised.
			span := time.Duration(1+rng.Intn(5)) * time.Minute * time.Duration(n+1)
			traces[i] = randomMonitorTrace(rng, monitors[i], n, span)
		}
		batch := trace.Unify(traces...)
		stream := streamUnify(t, traces...)
		if len(batch) == 0 && len(stream) == 0 {
			continue
		}
		if !reflect.DeepEqual(batch, stream) {
			if len(batch) != len(stream) {
				t.Fatalf("seed %d: batch %d entries, stream %d", seed, len(batch), len(stream))
			}
			for i := range batch {
				if batch[i] != stream[i] {
					t.Fatalf("seed %d: first divergence at %d:\nbatch:  %+v\nstream: %+v",
						seed, i, batch[i], stream[i])
				}
			}
		}
	}
}

// TestStreamUnifierEquivalenceEqualTimestamps stresses the tie-break path:
// many entries sharing timestamps across monitors and within one monitor.
func TestStreamUnifierEquivalenceEqualTimestamps(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		mk := func(mon string, n int) []trace.Entry {
			out := make([]trace.Entry, 0, n)
			for i := 0; i < n; i++ {
				// Only 4 distinct timestamps: heavy collisions.
				at := t0.Add(time.Duration(rng.Intn(4)) * time.Second)
				out = append(out, entry(mon, byte(rng.Intn(3)), fmt.Sprintf("c%d", rng.Intn(3)),
					wire.EntryType(rng.Intn(3)+1), at))
			}
			// Per-source ordering requires nondecreasing timestamps only;
			// tie order within a timestamp stays random.
			sortByTimestampOnly(out)
			return out
		}
		a, b := mk("us", 60), mk("de", 60)
		batch := trace.Unify(a, b)
		stream := streamUnify(t, a, b)
		if !reflect.DeepEqual(batch, stream) {
			t.Fatalf("seed %d: equal-timestamp equivalence failed", seed)
		}
	}
}

// sortByTimestampOnly stable-sorts by timestamp, deliberately leaving
// same-timestamp entries in generation order.
func sortByTimestampOnly(entries []trace.Entry) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Timestamp.Before(entries[j-1].Timestamp); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

func TestStreamUnifierBoundedState(t *testing.T) {
	// A long trace with distinct keys far apart in time: batch Unify's
	// maps grow with the trace; the stream unifier's state must stay
	// bounded by the window contents (here: one or two keys).
	const n = 5000
	src := make([]trace.Entry, 0, n)
	for i := 0; i < n; i++ {
		src = append(src, entry("us", byte(i%251), fmt.Sprintf("c%d", i), wire.WantHave,
			t0.Add(time.Duration(i)*time.Minute)))
	}
	u := NewStreamUnifier(SliceSource(src))
	maxState := 0
	for {
		_, err := u.Read()
		if err != nil {
			break
		}
		if s := len(u.state.index); s > maxState {
			maxState = s
		}
	}
	// Each entry is a distinct key a minute apart; both windows hold at
	// most a handful of keys at once.
	if maxState > 8 {
		t.Errorf("unifier state grew to %d keys; window expiry broken", maxState)
	}
}

func TestStreamUnifierRejectsUnsortedSource(t *testing.T) {
	src := []trace.Entry{
		entry("us", 1, "a", wire.WantHave, t0.Add(time.Minute)),
		entry("us", 1, "b", wire.WantHave, t0), // goes backwards
	}
	_, err := Drain(NewStreamUnifier(SliceSource(src)))
	if !errors.Is(err, ErrUnsortedSource) {
		t.Errorf("err = %v, want ErrUnsortedSource", err)
	}
}

func TestStreamUnifierEmpty(t *testing.T) {
	out, err := Drain(NewStreamUnifier())
	if err != nil || len(out) != 0 {
		t.Errorf("empty unifier: out=%v err=%v", out, err)
	}
	out, err = Drain(NewStreamUnifier(SliceSource(nil), SliceSource(nil)))
	if err != nil || len(out) != 0 {
		t.Errorf("empty sources: out=%v err=%v", out, err)
	}
}

// unifySinkRun pushes the (globally time-ordered) raw entries through a
// UnifySink and returns the flagged output.
func unifySinkRun(t *testing.T, entries []trace.Entry) []trace.Entry {
	t.Helper()
	ms := NewMemorySink()
	u := NewUnifySink(ms)
	for _, e := range entries {
		if err := u.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(); err != nil {
		t.Fatal(err)
	}
	return ms.Snapshot()
}

// TestUnifySinkEquivalence: pushing the interleaved monitor streams through
// the push-mode sink must produce exactly what batch trace.Unify produces —
// the property that lets live simulations unify without retaining traces.
func TestUnifySinkEquivalence(t *testing.T) {
	monitors := []string{"us", "de", "jp"}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		nMon := 1 + rng.Intn(len(monitors))
		traces := make([][]trace.Entry, nMon)
		var merged []trace.Entry
		for i := 0; i < nMon; i++ {
			n := rng.Intn(300)
			span := time.Duration(1+rng.Intn(4)) * time.Minute * time.Duration(n+1)
			traces[i] = randomMonitorTrace(rng, monitors[i], n, span)
			merged = append(merged, traces[i]...)
		}
		// The sink sees one globally time-ordered arrival stream, with
		// per-monitor relative order preserved (a simulation clock only
		// moves forward) but same-timestamp interleaving arbitrary.
		sortByTimestampOnly(merged)
		batch := trace.Unify(traces...)
		got := unifySinkRun(t, merged)
		if len(batch) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(batch, got) {
			t.Fatalf("seed %d: push-mode unification diverges from batch Unify", seed)
		}
	}
}

func TestUnifySinkRejectsBackwardsTime(t *testing.T) {
	u := NewUnifySink(NewMemorySink())
	if err := u.Write(entry("us", 1, "a", wire.WantHave, t0.Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	err := u.Write(entry("us", 1, "b", wire.WantHave, t0))
	if !errors.Is(err, ErrUnsortedSource) {
		t.Errorf("err = %v, want ErrUnsortedSource", err)
	}
}

// failAfterSink fails every write after the first n.
type failAfterSink struct {
	n    int
	seen []trace.Entry
}

func (s *failAfterSink) Write(e trace.Entry) error {
	if len(s.seen) >= s.n {
		return errors.New("disk full")
	}
	s.seen = append(s.seen, e)
	return nil
}

// TestUnifySinkLatchesError: after a downstream write error the sink must
// refuse further work with the same error — retrying would re-flag and
// re-deliver entries already forwarded mid-batch.
func TestUnifySinkLatchesError(t *testing.T) {
	dst := &failAfterSink{n: 1}
	u := NewUnifySink(dst)
	// Two entries share t0 (one batch), a third advances time and flushes.
	for _, e := range []trace.Entry{
		entry("us", 1, "a", wire.WantHave, t0),
		entry("us", 2, "b", wire.WantHave, t0),
		entry("us", 3, "c", wire.WantHave, t0.Add(time.Minute)),
	} {
		if err := u.Write(e); err != nil {
			break
		}
	}
	err := u.Write(entry("us", 4, "d", wire.WantHave, t0.Add(2*time.Minute)))
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("write after failure = %v, want latched disk-full error", err)
	}
	if ferr := u.Flush(); ferr == nil || ferr.Error() != "disk full" {
		t.Fatalf("flush after failure = %v, want latched disk-full error", ferr)
	}
	if len(dst.seen) != 1 {
		t.Fatalf("downstream received %d entries after failure, want 1 (no redelivery)", len(dst.seen))
	}
}

func TestStreamUnifierFromSegmentStores(t *testing.T) {
	// End-to-end: two monitors' traces streamed through segment stores,
	// then unified from Query iterators — the bsanalyze pipeline.
	rng := rand.New(rand.NewSource(21))
	us := randomMonitorTrace(rng, "us", 300, 2*time.Hour)
	de := randomMonitorTrace(rng, "de", 250, 2*time.Hour)

	dir := t.TempDir()
	var srcs []EntrySource
	for name, tr := range map[string][]trace.Entry{"us": us, "de": de} {
		store, err := OpenSegmentStore(dir+"/"+name, SegmentOptions{Rotation: 15 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr {
			if err := store.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		it, err := store.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, it)
	}
	// Source order affects only exact full-key ties; none exist across
	// monitors here (Monitor differs), so map iteration order is fine.
	stream, err := Drain(NewStreamUnifier(srcs...))
	if err != nil {
		t.Fatal(err)
	}
	batch := trace.Unify(us, de)
	if !reflect.DeepEqual(batch, stream) {
		t.Fatal("segment-store unification diverges from batch Unify")
	}
}
