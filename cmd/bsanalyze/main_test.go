package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// testEntry is the i-th entry of every test input, whatever its form.
func testEntry(mon string, i int) trace.Entry {
	var id simnet.NodeID
	id[0] = byte(i % 7)
	return trace.Entry{
		Timestamp: time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Monitor:   mon,
		NodeID:    id,
		Addr:      "3.0.0.1:4001",
		Type:      wire.WantHave,
		CID:       cid.Sum(cid.DagProtobuf, []byte{byte(i % 30)}),
	}
}

// writeTestTrace creates a small binary trace file.
func writeTestTrace(t *testing.T, path, mon string, n int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Write(testEntry(mon, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBsanalyzeReports(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "us.trace")
	p2 := filepath.Join(dir, "de.trace")
	writeTestTrace(t, p1, "us", 120)
	writeTestTrace(t, p2, "de", 80)

	for _, name := range []string{"summary", "online", "table1", "table2", "fig4", "traffic"} {
		if err := run([]string{"-report", name, p1, p2}); err != nil {
			t.Errorf("report %s: %v", name, err)
		}
	}
	// Any combination runs in one pass over the same inputs.
	if err := run([]string{"-report", "summary,table1,table2,fig4,popularity", p1, p2}); err != nil {
		t.Errorf("multi-report pass: %v", err)
	}
	// Spaces after commas are tolerated.
	if err := run([]string{"-report", "summary, table1", p1, p2}); err != nil {
		t.Errorf("spaced report list: %v", err)
	}
}

// TestBsanalyzeUnknownReport: unknown names fail before any input is
// opened, and the error lists the registry so the operator can self-serve.
func TestBsanalyzeUnknownReport(t *testing.T) {
	err := run([]string{"-report", "vibes", "does-not-exist"})
	if err == nil {
		t.Fatal("unknown report accepted")
	}
	for _, name := range report.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
	// One bad name poisons a multi-report list too.
	if err := run([]string{"-report", "summary,vibes", "does-not-exist"}); err == nil ||
		!strings.Contains(err.Error(), "vibes") {
		t.Errorf("bad name in list: %v", err)
	}
}

// writeTestStore creates a segment-store directory with the same entries
// writeTestTrace would produce.
func writeTestStore(t *testing.T, dir, mon string, n int) {
	t.Helper()
	store, err := ingest.OpenSegmentStore(dir, ingest.SegmentOptions{Rotation: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := store.Write(testEntry(mon, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeTestCSV creates a CSV export with the same entries writeTestTrace
// would produce.
func writeTestCSV(t *testing.T, path, mon string, n int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewCSVWriter(f)
	for i := 0; i < n; i++ {
		if err := w.Write(testEntry(mon, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// runOutput runs bsanalyze and returns what it printed to stdout.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	err = run(args)
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if err != nil {
		t.Fatalf("bsanalyze %v: %v", args, err)
	}
	return string(printed)
}

func TestBsanalyzeSegmentDirInputs(t *testing.T) {
	dir := t.TempDir()
	s1 := filepath.Join(dir, "us.segments")
	writeTestStore(t, s1, "us", 120)
	p2 := filepath.Join(dir, "de.trace")
	writeTestTrace(t, p2, "de", 80)

	// Mixed inputs: one segment store, one flat file. The popularity
	// (ECDF) report streams from segment dirs like every other report.
	for _, report := range []string{"summary", "online", "table1", "fig4", "popularity"} {
		if err := run([]string{"-report", report, s1, p2}); err != nil {
			t.Errorf("report %s over mixed inputs: %v", report, err)
		}
	}

	// The three input forms carry the same entries, so any pairing of them
	// prints the same reports.
	forms := []string{".trace", ".segments", ".csv"}
	writeTestTrace(t, filepath.Join(dir, "us.trace"), "us", 120)
	writeTestStore(t, filepath.Join(dir, "de.segments"), "de", 80)
	writeTestCSV(t, filepath.Join(dir, "us.csv"), "us", 120)
	writeTestCSV(t, filepath.Join(dir, "de.csv"), "de", 80)
	want := runOutput(t, "-report", "summary,traffic", filepath.Join(dir, "us.trace"), p2)
	if !strings.Contains(want, "200") {
		t.Fatalf("reference output does not count the 200 entries:\n%s", want)
	}
	for _, us := range forms {
		for _, de := range forms {
			got := runOutput(t, "-report", "summary,traffic", filepath.Join(dir, "us"+us), filepath.Join(dir, "de"+de))
			if got != want {
				t.Errorf("us%s + de%s printed:\n%s\nwant:\n%s", us, de, got, want)
			}
		}
	}

	// A directory that is not a segment store is rejected, by bsanalyze and
	// by replay in the same words: both open inputs through ingest.
	empty := filepath.Join(dir, "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	err := run([]string{empty})
	if err == nil {
		t.Fatal("empty directory accepted as store")
	}
	if _, rerr := replay.Prepare(replay.Spec{Inputs: []string{empty}}); rerr == nil || rerr.Error() != err.Error() {
		t.Errorf("replay.Prepare on an empty store: %v, want %v", rerr, err)
	}
}

func TestBsanalyzeCorruptStoreFails(t *testing.T) {
	dir := t.TempDir()

	// A store directory that does not exist must fail, not report nothing.
	if err := run([]string{filepath.Join(dir, "nope.segments")}); err == nil {
		t.Error("missing segment directory accepted")
	}

	// A valid store with one footer-less segment file (crash leftover or
	// truncation) must fail rather than print a partial report.
	s := filepath.Join(dir, "us.segments")
	writeTestStore(t, s, "us", 60)
	if err := os.WriteFile(filepath.Join(s, "999999.seg"), []byte("torn segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{s}); err == nil {
		t.Error("store with corrupt segment footer accepted")
	}

	// A sealed segment whose footer bytes were damaged in place must fail
	// too.
	s2 := filepath.Join(dir, "de.segments")
	writeTestStore(t, s2, "de", 60)
	segs, err := filepath.Glob(filepath.Join(s2, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("XXXXXXXX"), st.Size()-8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{s2}); err == nil {
		t.Error("store with damaged footer magic accepted")
	}
}

func TestBsanalyzeErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no files accepted")
	}
	if err := run([]string{"-report", "nope", "x"}); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "t.trace")
	writeTestTrace(t, p, "us", 10)
	if err := run([]string{"-report", "nope", p}); err == nil {
		t.Error("unknown report accepted")
	}
	for _, flag := range [][]string{{"-bucket", "-1h"}, {"-iters", "-1"}, {"-topk", "-1"}} {
		if err := run(append(flag, p)); err == nil {
			t.Errorf("%v accepted", flag)
		}
	}
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}); err == nil {
		t.Error("garbage trace accepted")
	}
}
