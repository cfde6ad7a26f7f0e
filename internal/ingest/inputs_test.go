package ingest

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
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
	if err := trace.WriteCSV(f, want); err != nil {
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
