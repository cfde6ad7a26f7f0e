package main

import (
	"os"
	"path/filepath"
	"testing"

	"bitswapmon/internal/ingest"
)

func TestBsmonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	err := run([]string{"-out", dir, "-nodes", "80", "-hours", "2", "-seed", "3", "-rotate", "30m", "-csv"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"us.csv", "de.csv"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing output %s: %v", name, err)
		} else if st.Size() == 0 {
			t.Errorf("empty export %s", name)
		}
	}

	// The segment store must be non-empty and partitioned by time: 2
	// virtual hours at 30m rotation means multiple sealed segments.
	store, err := ingest.OpenSegmentStore(filepath.Join(dir, "us.segments"), ingest.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if store.Totals().Entries == 0 {
		t.Error("empty trace written")
	}
	if segs := store.Segments(); len(segs) < 2 {
		t.Errorf("segments = %d, want >= 2 (rotation not happening)", len(segs))
	}
}

func TestBsmonBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bogus flag accepted")
	}
}
