package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bitswapmon/internal/report"
)

// TestBsmonEndToEnd runs a bounded daemon to completion: -hours stops it on
// its own, both stores reopen sealed and partitioned by time, and the
// window log holds the closed windows.
func TestBsmonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	err := run([]string{"-out", dir, "-nodes", "80", "-hours", "2", "-seed", "3", "-rotate", "30m",
		"-serve-addr", "127.0.0.1:0", "-pace", "0"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	// 2 virtual hours at 30m rotation means multiple sealed segments.
	for _, mon := range []string{"us", "de"} {
		store := reopenClean(t, filepath.Join(dir, mon+".segments"))
		if segs := store.Segments(); len(segs) < 2 {
			t.Errorf("%s: segments = %d, want >= 2 (rotation not happening)", mon, len(segs))
		}
	}
	if n := windowLogLines(t, dir); n < 1 {
		t.Fatalf("window log holds %d windows, want >= 1", n)
	}
}

// TestBsmonBadFlags checks that bad input fails before anything is built:
// the output directory is never created.
func TestBsmonBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-serve"},
		{"-csv"},
		{"-trace-out", "x"},
		{"-hours", "-1"},
		{"-nodes", "0"},
	} {
		out := filepath.Join(t.TempDir(), "out")
		if err := run(append([]string{"-out", out, "-serve-addr", "127.0.0.1:0"}, args...)); err == nil {
			t.Errorf("%v accepted", args)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: output directory created (err %v)", args, err)
		}
	}
}

// windowLogLines parses DIR/windows.jsonl, one report.WindowResult per
// line, and returns the line count.
func windowLogLines(t *testing.T, dir string) int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "windows.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var res report.WindowResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad window log line %d: %v", lines, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
