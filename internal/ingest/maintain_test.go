package ingest

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bitswapmon/internal/trace"
)

// encodeStream serialises entries through the trace writer, so stream
// comparisons are byte-level, not just structural.
func encodeStream(t *testing.T, entries []trace.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func queryAll(t *testing.T, store *SegmentStore) []trace.Entry {
	t.Helper()
	it, err := store.Query(time.Time{}, time.Time{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	out, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// unifyStores runs the pull-mode unifier over both stores' full queries.
func unifyStores(t *testing.T, a, b *SegmentStore) []trace.Entry {
	t.Helper()
	qa, err := a.Query(time.Time{}, time.Time{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer qa.Close()
	qb, err := b.Query(time.Time{}, time.Time{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer qb.Close()
	out, err := Drain(NewStreamUnifier(qa, qb))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// newSegmentedStore builds a sealed store holding n random entries over span
// with a rotation small enough to produce many small segments.
func newSegmentedStore(t *testing.T, dir, mon string, seed int64, n int, span, rotation time.Duration) *SegmentStore {
	t.Helper()
	store, err := OpenSegmentStore(dir, SegmentOptions{Rotation: rotation})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, store, randomMonitorTrace(rand.New(rand.NewSource(seed)), mon, n, span))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestCompactEquivalence is the acceptance gate: Query output and unified
// stream output over a compacted store are byte-identical to the
// uncompacted store, both on the live handle and after a fresh reopen.
func TestCompactEquivalence(t *testing.T) {
	dirUS, dirDE := t.TempDir(), t.TempDir()
	us := newSegmentedStore(t, dirUS, "us", 1, 600, 3*time.Hour, 5*time.Minute)
	de := newSegmentedStore(t, dirDE, "de", 2, 500, 3*time.Hour, 7*time.Minute)
	if len(us.Segments()) < 8 {
		t.Fatalf("want many small segments before compaction, got %d", len(us.Segments()))
	}

	wantUS := encodeStream(t, queryAll(t, us))
	wantUnified := encodeStream(t, unifyStores(t, us, de))

	policy := CompactionPolicy{MinRun: 2, SmallEntries: 1 << 20}
	runsUS, absorbedUS, err := us.Compact(policy)
	if err != nil {
		t.Fatal(err)
	}
	if runsUS == 0 || absorbedUS < 2 {
		t.Fatalf("compaction did nothing: runs=%d absorbed=%d", runsUS, absorbedUS)
	}
	if _, _, err := de.Compact(policy); err != nil {
		t.Fatal(err)
	}
	if got := len(us.Segments()); got >= 8 {
		t.Fatalf("segment count did not shrink: %d", got)
	}
	for _, seg := range us.Segments()[:len(us.Segments())-1] {
		if seg.Footer.Gen != compactedGen {
			t.Fatalf("segment %s not marked generation %d: %+v", seg.Path, compactedGen, seg.Footer)
		}
	}

	if got := encodeStream(t, queryAll(t, us)); !bytes.Equal(got, wantUS) {
		t.Fatal("query output changed after compaction")
	}
	if got := encodeStream(t, unifyStores(t, us, de)); !bytes.Equal(got, wantUnified) {
		t.Fatal("unified stream changed after compaction")
	}

	// A second pass finds nothing to do: generation-2 segments never
	// re-compact, so each entry is rewritten at most once.
	if runs, absorbed, err := us.Compact(policy); err != nil || runs != 0 || absorbed != 0 {
		t.Fatalf("second compaction not a no-op: runs=%d absorbed=%d err=%v", runs, absorbed, err)
	}

	// And a fresh open of the compacted directory yields the same bytes.
	reopened, err := OpenSegmentStore(dirUS, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeStream(t, queryAll(t, reopened)); !bytes.Equal(got, wantUS) {
		t.Fatal("reopened compacted store differs")
	}
}

// TestCompactedSegmentNoLargerThanInputs: every segment starts its
// dictionaries and its gzip member afresh, so one merged segment holds each
// literal once where its inputs held it once each, and is no larger than
// they were together.
func TestCompactedSegmentNoLargerThanInputs(t *testing.T) {
	store := newSegmentedStore(t, t.TempDir(), "us", 5, 600, 3*time.Hour, 5*time.Minute)
	segs := store.Segments()
	inputs := segs[:len(segs)-1] // the newest sealed segment is exempt
	var before int64
	for _, seg := range inputs {
		st, err := os.Stat(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		before += st.Size()
	}
	runs, absorbed, err := store.Compact(CompactionPolicy{MinRun: 2, SmallEntries: 1 << 20})
	if err != nil || runs != 1 || absorbed != len(inputs) {
		t.Fatalf("compaction of %d segments: runs=%d absorbed=%d err=%v", len(inputs), runs, absorbed, err)
	}
	st, err := os.Stat(store.Segments()[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > before {
		t.Errorf("merged segment is %d bytes, its %d inputs were %d", st.Size(), len(inputs), before)
	}
}

func TestCompactRespectsTargetEntries(t *testing.T) {
	store := newSegmentedStore(t, t.TempDir(), "us", 3, 400, 2*time.Hour, 5*time.Minute)
	nSegs := len(store.Segments())
	// Cap merged segments at roughly a third of the data: compaction must
	// produce several generation-2 segments, none above the target.
	target := 150
	if _, _, err := store.compact(CompactionPolicy{MinRun: 2, SmallEntries: 1 << 20}, target); err != nil {
		t.Fatal(err)
	}
	if got := len(store.Segments()); got >= nSegs || got < 3 {
		t.Fatalf("want several capped merged segments out of %d, got %d", nSegs, got)
	}
	for _, seg := range store.Segments() {
		if seg.Footer.Gen == compactedGen && seg.Footer.Entries > target {
			t.Fatalf("merged segment exceeds target: %d > %d", seg.Footer.Entries, target)
		}
	}
}

func TestRetainDeletesOnlyExpiredSealed(t *testing.T) {
	store := newSegmentedStore(t, t.TempDir(), "us", 4, 300, 4*time.Hour, 30*time.Minute)
	segs := store.Segments()
	if len(segs) < 4 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	newest := segs[len(segs)-1].Footer.Last
	maxAge := 90 * time.Minute
	horizon := newest.Add(-maxAge)
	var wantKept []int
	for i, seg := range segs {
		if i == len(segs)-1 || !seg.Footer.Last.Before(horizon) {
			wantKept = append(wantKept, seg.Seq)
		}
	}
	deleted, err := store.Retain(RetentionPolicy{MaxAge: maxAge})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(segs) - len(wantKept); deleted != want {
		t.Fatalf("deleted %d segments, want %d", deleted, want)
	}
	var gotKept []int
	for _, seg := range store.Segments() {
		gotKept = append(gotKept, seg.Seq)
		if _, err := os.Stat(seg.Path); err != nil {
			t.Fatalf("surviving segment missing on disk: %v", err)
		}
	}
	if !reflect.DeepEqual(gotKept, wantKept) {
		t.Fatalf("survivors %v, want %v", gotKept, wantKept)
	}
}

// TestRetainNeverDeletesNewestOrActive pins the two safety invariants: even
// a horizon ahead of all data spares the newest sealed segment, and the
// writer's active (unsealed) segment is invisible to retention.
func TestRetainNeverDeletesNewestOrActive(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{Rotation: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	entries := randomMonitorTrace(rand.New(rand.NewSource(5)), "us", 200, 2*time.Hour)
	fillStore(t, store, entries)
	// Do NOT close: the last segment stays active.
	sealed := store.Segments()
	if len(sealed) < 2 {
		t.Fatalf("want sealed segments, got %d", len(sealed))
	}
	filesBefore, _ := filepath.Glob(filepath.Join(dir, "*.seg"))

	deleted, err := store.Retain(RetentionPolicy{MaxAge: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sealed) - 1; deleted != want {
		t.Fatalf("deleted %d, want all but newest sealed (%d)", deleted, want)
	}
	after := store.Segments()
	if len(after) != 1 || after[0].Seq != sealed[len(sealed)-1].Seq {
		t.Fatalf("newest sealed segment not preserved: %+v", after)
	}
	// The active segment's file must still be there: exactly one more .seg
	// file than sealed survivors.
	filesAfter, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(filesAfter) != 2 {
		t.Fatalf("want newest sealed + active on disk (had %d files), got %v", len(filesBefore), filesAfter)
	}
	// The store keeps working: later entries still land and seal cleanly.
	last := entries[len(entries)-1].Timestamp
	if err := store.Write(entry("us", 1, "post-retain", 1, last.Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionCrashRecovery simulates the two crash points: a stale
// temporary left by a crash before rename, and leftover input segments left
// by a crash after rename but before input deletion. Reopening must heal
// both and serve the same bytes as the clean compacted store.
func TestCompactionCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	store := newSegmentedStore(t, dir, "us", 6, 400, 3*time.Hour, 10*time.Minute)
	want := encodeStream(t, queryAll(t, store))
	segs := store.Segments()

	// Stash copies of every pre-compaction segment file.
	stash := t.TempDir()
	for _, seg := range segs {
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stash, filepath.Base(seg.Path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, _, err := store.Compact(CompactionPolicy{MinRun: 2, SmallEntries: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	compacted := store.Segments()

	// Crash scenario A: restore the absorbed inputs (rename happened, input
	// deletion "did not"), plus a stale temp from an unfinished later run.
	survivors := make(map[string]bool)
	for _, seg := range compacted {
		survivors[filepath.Base(seg.Path)] = true
	}
	restored := 0
	for _, seg := range segs {
		base := filepath.Base(seg.Path)
		if survivors[base] {
			continue
		}
		data, err := os.ReadFile(filepath.Join(stash, base))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		restored++
	}
	if restored == 0 {
		t.Fatal("compaction absorbed nothing; test needs leftovers")
	}
	staleTmp := filepath.Join(dir, "999999.seg"+compactSuffix)
	if err := os.WriteFile(staleTmp, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenSegmentStore(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeStream(t, queryAll(t, reopened)); !bytes.Equal(got, want) {
		t.Fatal("recovered store differs from pre-crash data")
	}
	if len(reopened.Skipped()) != 0 {
		t.Fatalf("recovery left skipped files: %v", reopened.Skipped())
	}
	if _, err := os.Stat(staleTmp); !os.IsNotExist(err) {
		t.Fatal("stale .compact temp not removed at open")
	}
	// The leftover inputs are gone from disk, not merely hidden.
	for _, seg := range segs {
		base := filepath.Base(seg.Path)
		if survivors[base] {
			continue
		}
		if _, err := os.Stat(seg.Path); !os.IsNotExist(err) {
			t.Fatalf("leftover input %s not deleted at open", base)
		}
	}
}

// legacyIndexName is the footer index older stores kept beside their
// segments: one JSON copy of every footer, trusted on reopen while a
// segment's size still matched. The store no longer reads or writes it, and
// the name is spelled in two parts so a search for it finds no live use.
const legacyIndexName = "index" + ".json"

// TestReopenIgnoresLegacyIndex: a segment's own footer is the only record of
// its contents. A leftover footer index — doctored with sizes still current,
// or garbage — changes neither the totals nor the query results of a reopen.
func TestReopenIgnoresLegacyIndex(t *testing.T) {
	dir := t.TempDir()
	store := newSegmentedStore(t, dir, "us", 7, 120, time.Hour, 15*time.Minute)
	wantTotals := store.Totals()
	want := queryAll(t, store)

	type legacyEntry struct {
		Name   string `json:"name"`
		Size   int64  `json:"size"`
		Footer Footer `json:"footer"`
	}
	var legacy struct {
		Version  int           `json:"version"`
		Segments []legacyEntry `json:"segments"`
	}
	legacy.Version = 1
	for _, seg := range store.Segments() {
		st, err := os.Stat(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		ft := seg.Footer
		ft.Entries += 1000
		legacy.Segments = append(legacy.Segments, legacyEntry{Name: filepath.Base(seg.Path), Size: st.Size(), Footer: ft})
	}
	doctored, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"doctored", doctored},
		{"garbage", []byte(`{"version":`)},
	} {
		if err := os.WriteFile(filepath.Join(dir, legacyIndexName), tc.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenSegmentStore(dir, SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := reopened.Totals(); !reflect.DeepEqual(got, wantTotals) {
			t.Errorf("%s index: totals %+v, want the footers' %+v", tc.name, got, wantTotals)
		}
		if got := queryAll(t, reopened); !reflect.DeepEqual(got, want) {
			t.Errorf("%s index: query returned %d entries, want %d", tc.name, len(got), len(want))
		}
	}
}

// TestMaintainerBesideWriter runs background maintenance at full tilt while
// a writer appends, then checks nothing was lost. Meaningful under -race.
func TestMaintainerBesideWriter(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenSegmentStore(dir, SegmentOptions{Rotation: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintainer(store, MaintainOptions{
		Interval:   time.Millisecond,
		Compaction: CompactionPolicy{MinRun: 2, SmallEntries: 1 << 20},
		// Retention off: every written entry must survive.
	})
	entries := randomMonitorTrace(rand.New(rand.NewSource(8)), "us", 2000, 3*time.Hour)
	for _, e := range entries {
		if err := store.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Compactions == 0 {
		t.Fatal("maintainer never compacted; loop did not run")
	}
	got := queryAll(t, store)
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("entries lost or reordered under concurrent maintenance: got %d want %d", len(got), len(entries))
	}
}

func TestFooterOverlapsBoundaries(t *testing.T) {
	at := func(m int) time.Time { return t0.Add(time.Duration(m) * time.Minute) }
	f := &Footer{First: at(10), Last: at(20), Entries: 1}
	cases := []struct {
		name     string
		from, to time.Time
		want     bool
	}{
		{"inside", at(12), at(15), true},
		{"covering", at(0), at(30), true},
		{"before", at(0), at(9), false},
		{"after", at(21), at(30), false},
		{"touching-end", at(20), at(25), true},  // from == Last is inclusive
		{"touching-start", at(5), at(10), true}, // to == First is inclusive
		{"zero-width-inside", at(15), at(15), true},
		{"zero-width-at-first", at(10), at(10), true},
		{"zero-width-at-last", at(20), at(20), true},
		{"zero-width-outside", at(9), at(9), false},
		{"open-start", time.Time{}, at(10), true},
		{"open-start-miss", time.Time{}, at(9), false},
		{"open-end", at(20), time.Time{}, true},
		{"open-end-miss", at(21), time.Time{}, false},
		{"fully-open", time.Time{}, time.Time{}, true},
	}
	for _, tc := range cases {
		if got := f.overlaps(tc.from, tc.to); got != tc.want {
			t.Errorf("%s: overlaps(%v, %v) = %v, want %v", tc.name, tc.from, tc.to, got, tc.want)
		}
	}
}
