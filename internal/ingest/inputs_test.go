package ingest

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"bitswapmon/internal/trace"
)

// TestOpenInputsCSV: a CSV export opens like any other input.
func TestOpenInputsCSV(t *testing.T) {
	want := randomMonitorTrace(rand.New(rand.NewSource(7)), "us", 40, time.Hour)
	path := filepath.Join(t.TempDir(), "us.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewCSVWriter(f)
	for _, e := range want {
		if err := cw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sources, cleanup, err := OpenInputs([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	n := 0
	for {
		_, err := sources[0].Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("CSV input yielded %d entries, want %d", n, len(want))
	}
}

// TestOpenInputsCleanupStopsReaders: the cleanup stops the decoding
// goroutine of every input abandoned mid-stream, a flat binary trace's and
// a store's, before it closes their files.
func TestOpenInputsCleanupStopsReaders(t *testing.T) {
	want := randomMonitorTrace(rand.New(rand.NewSource(9)), "us", 5000, time.Hour)
	dir := t.TempDir()
	flat := filepath.Join(dir, "us.trace")
	f, err := os.Create(flat)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenSegmentStore(filepath.Join(dir, "us.segments"), SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range want {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		if err := store.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	sources, cleanup, err := OpenInputs([]string{flat, store.dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		if _, err := src.Read(); err != nil {
			t.Fatal(err)
		}
	}
	cleanup()
	settleGoroutines(t, "inputs abandoned mid-stream and cleaned up", base)
}
