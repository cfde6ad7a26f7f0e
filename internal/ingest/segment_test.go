package ingest

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

func fillStore(t *testing.T, store *SegmentStore, entries []trace.Entry) {
	t.Helper()
	for _, e := range entries {
		if err := store.Write(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSegmentStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{Rotation: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	in := randomMonitorTrace(rng, "us", 500, time.Hour)
	fillStore(t, store, in)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	it, err := store.Query(time.Time{}, time.Time{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestSegmentStoreRotatesByTimeAndCount(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{Rotation: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	store.maxEntries = 64
	// One entry per minute for 3 hours: rotation by time alone gives 18
	// segments of <=10 entries each.
	var in []trace.Entry
	for i := 0; i < 180; i++ {
		in = append(in, entry("us", 1, "x", wire.WantHave, t0.Add(time.Duration(i)*time.Minute)))
	}
	fillStore(t, store, in)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	segs := store.Segments()
	if len(segs) != 18 {
		t.Fatalf("segments = %d, want 18", len(segs))
	}
	for _, seg := range segs {
		if seg.Footer.Entries != 10 {
			t.Errorf("segment %d: %d entries, want 10", seg.Seq, seg.Footer.Entries)
		}
		if got := seg.Footer.Last.Sub(seg.Footer.First); got >= 10*time.Minute {
			t.Errorf("segment %d spans %v, want < rotation", seg.Seq, got)
		}
		if seg.Footer.PerType[wire.WantHave.String()] != 10 {
			t.Errorf("segment %d per-type = %v", seg.Seq, seg.Footer.PerType)
		}
		if seg.Footer.PerMonitor["us"] != 10 {
			t.Errorf("segment %d per-monitor = %v", seg.Seq, seg.Footer.PerMonitor)
		}
	}

	// Entry-cap rotation: 200 same-timestamp entries with a cap of 64.
	store2, err := OpenSegmentStore(filepath.Join(dir, "cap"), SegmentOptions{Rotation: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	store2.maxEntries = 64
	for i := 0; i < 200; i++ {
		if err := store2.Write(entry("us", 1, "x", wire.WantHave, t0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(store2.Segments()); got != 4 { // 64+64+64+8
		t.Errorf("cap segments = %d, want 4", got)
	}
}

func TestSegmentStoreQueryFiltersByTimeUsingFooters(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{Rotation: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var in []trace.Entry
	for i := 0; i < 24*60; i++ { // one day, one entry per minute
		in = append(in, entry("us", byte(i%3), "x", wire.WantHave, t0.Add(time.Duration(i)*time.Minute)))
	}
	fillStore(t, store, in)

	from, to := t0.Add(6*time.Hour), t0.Add(8*time.Hour)
	it, err := store.Query(from, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only the overlapping segments may be scheduled for reading.
	if got := len(it.segs); got > 3 {
		t.Errorf("query opened %d segments, want <= 3 (footer pruning failed)", got)
	}
	out, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	want := 121 // inclusive bounds: minutes 360..480
	if len(out) != want {
		t.Errorf("query returned %d entries, want %d", len(out), want)
	}
	for _, e := range out {
		if e.Timestamp.Before(from) || e.Timestamp.After(to) {
			t.Fatalf("entry outside window: %v", e.Timestamp)
		}
	}

	// Predicate filter composes with the time window.
	it2, err := store.Query(from, to, func(e trace.Entry) bool { return e.NodeID[0] == 1 })
	if err != nil {
		t.Fatal(err)
	}
	out2, err := Drain(it2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range out2 {
		if e.NodeID[0] != 1 {
			t.Fatalf("predicate leak: node %d", e.NodeID[0])
		}
	}
	if len(out2) == 0 || len(out2) >= len(out) {
		t.Errorf("predicate result size %d implausible (window size %d)", len(out2), len(out))
	}
}

func TestSegmentStoreReopenIndexesFooters(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{Rotation: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	in := randomMonitorTrace(rng, "de", 300, time.Hour)
	fillStore(t, store, in)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	firstTotals := store.Totals()
	if firstTotals.Entries != len(in) {
		t.Fatalf("totals = %d, want %d", firstTotals.Entries, len(in))
	}

	// Reopen: the index must be rebuilt from footers alone, and appends
	// must continue with fresh sequence numbers.
	re, err := OpenSegmentStore(dir, SegmentOptions{Rotation: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Totals(); got.Entries != len(in) {
		t.Fatalf("reopened totals = %d, want %d", got.Entries, len(in))
	}
	last := in[len(in)-1].Timestamp
	extra := entry("de", 9, "late", wire.Cancel, last.Add(time.Hour))
	if err := re.Write(extra); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	it, err := re.Query(time.Time{}, time.Time{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in)+1 {
		t.Fatalf("after reopen+append: %d entries, want %d", len(out), len(in)+1)
	}
	if out[len(out)-1] != extra {
		t.Errorf("appended entry lost: %+v", out[len(out)-1])
	}
}

func TestSegmentStoreSkipsUnsealedFiles(t *testing.T) {
	dir := t.TempDir()
	// A crash leaves a segment without a footer: a plain trace stream.
	path := filepath.Join(dir, "000007.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(entry("us", 1, "x", wire.WantHave, t0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	store, err := OpenSegmentStore(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(store.Segments()) != 0 {
		t.Errorf("unsealed segment indexed: %v", store.Segments())
	}
	if got := store.Skipped(); len(got) != 1 || got[0] != path {
		t.Errorf("skipped = %v, want [%s]", got, path)
	}
	// New appends must not collide with the orphan's sequence number.
	if err := store.Write(entry("us", 1, "x", wire.WantHave, t0)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if got := store.Segments()[0].Seq; got <= 7 {
		t.Errorf("new segment seq = %d, want > 7", got)
	}
}

func TestSegmentPayloadReadableByPlainTraceReader(t *testing.T) {
	// The footer trails the gzip stream; a plain trace.Reader must still
	// read the payload and stop cleanly at the stream's end.
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := []trace.Entry{
		entry("us", 1, "a", wire.WantHave, t0),
		entry("us", 2, "b", wire.Cancel, t0.Add(time.Second)),
	}
	fillStore(t, store, in)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	seg := store.Segments()[0]
	f, err := os.Open(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Entry
	for {
		e, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("plain reader over segment: %v", err)
		}
		out = append(out, e)
	}
	if len(out) != 2 {
		t.Fatalf("plain reader got %d entries, want 2", len(out))
	}

	// And the footer itself is readable without decompression.
	ft, err := ReadFooter(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Entries != 2 || !ft.First.Equal(t0) || !ft.Last.Equal(t0.Add(time.Second)) {
		t.Errorf("footer = %+v", ft)
	}
}

func TestQueryIterCloseMidStream(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{Rotation: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Three segments, each longer than the batches a Reader decodes ahead,
	// so the iterator's Reader is mid-segment when it is abandoned.
	const total = 5000
	for i := 0; i < total; i++ {
		if err := store.Write(entry("us", 1, "x", wire.WantHave, t0.Add(time.Duration(i)*30*time.Millisecond))); err != nil {
			t.Fatal(err)
		}
	}
	it, err := store.Query(time.Time{}, time.Time{}, nil) // seals: no chunk in flight
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if _, err := it.Read(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, "abandoned query closed", base)
	// Abandoned iterator must not wedge subsequent queries.
	it2, err := store.Query(time.Time{}, time.Time{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := it2.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != total {
		t.Errorf("second query saw %d entries, want %d", n, total)
	}
}

func TestSegmentStoreSurvivesSealFailure(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{Rotation: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Seal one good segment, then force a seal failure on the next by
	// closing the active file out from under the store.
	if err := store.Write(entry("us", 1, "a", wire.WantHave, t0)); err != nil {
		t.Fatal(err)
	}
	if err := store.Write(entry("us", 1, "b", wire.WantHave, t0.Add(2*time.Minute))); err != nil {
		t.Fatal(err)
	}
	store.f.Close() // sabotage the active segment's file descriptor
	if err := store.Close(); err == nil {
		t.Fatal("seal over closed file succeeded")
	}
	// The failure must not poison the store: sealed data stays queryable,
	// the broken segment is reported, and writes start a fresh segment.
	if got := len(store.Skipped()); got != 1 {
		t.Errorf("skipped = %d, want 1", got)
	}
	it, err := store.Query(time.Time{}, time.Time{}, nil)
	if err != nil {
		t.Fatalf("query after seal failure: %v", err)
	}
	out, err := Drain(it)
	if err != nil || len(out) != 1 {
		t.Fatalf("sealed data lost: n=%d err=%v", len(out), err)
	}
	if err := store.Write(entry("us", 1, "c", wire.WantHave, t0.Add(4*time.Minute))); err != nil {
		t.Fatalf("write after seal failure: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	if tot := store.Totals(); tot.Entries != 2 {
		t.Errorf("totals after recovery = %d, want 2", tot.Entries)
	}
}

// TestFooterCountsByTypeAndMonitor: the footer's per-type and per-monitor
// counts, gathered off the string-keyed maps while the segment is active,
// are what counting each entry under its type's spelling and its monitor's
// name gives — with monitors interleaved, an empty monitor name and a type
// byte the wire format does not define.
func TestFooterCountsByTypeAndMonitor(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := newFooter()
	monitors := []string{"us", "us", "de", "", "us", "", "", "de"}
	for i := 0; i < 200; i++ {
		typ := wire.EntryType(i%3 + 1)
		if i%17 == 0 {
			typ = wire.EntryType(200)
		}
		e := entry(monitors[i%len(monitors)], byte(i), "x", typ, t0.Add(time.Duration(i)*time.Second))
		if err := store.Write(e); err != nil {
			t.Fatal(err)
		}
		want.Entries++
		want.PerType[typ.String()]++
		want.PerMonitor[e.Monitor]++
	}
	want.First, want.Last = t0, t0.Add(199*time.Second)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	segs := store.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	onDisk, err := ReadFooter(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]Footer{"indexed": segs[0].Footer, "on disk": onDisk, "totals": store.Totals()} {
		if !reflect.DeepEqual(got, *want) {
			t.Errorf("%s footer:\n got %+v\nwant %+v", name, got, *want)
		}
	}
	if want.PerType["EntryType(200)"] == 0 || want.PerMonitor[""] == 0 {
		t.Fatalf("the trace does not hold the cases this test is for: %+v", *want)
	}
}
