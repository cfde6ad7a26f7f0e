package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/report"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/trace"
)

// writeSpec writes the small preset at 80 nodes, wrapped as the one-run
// sweep spec bssweep preset prints and edited by tweak, and returns its
// path.
func writeSpec(t *testing.T, tweak func(*sweep.SweepSpec)) string {
	t.Helper()
	spec := sweep.DefaultSpec()
	spec.Nodes = 80
	sw := sweep.SweepSpec{Version: sweep.SpecVersion, Name: spec.Name, Base: spec, Seeds: sweep.SeedPolicy{Base: spec.Seed}}
	if tweak != nil {
		tweak(&sw)
	}
	blob, err := sw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBsmonEndToEnd runs a bounded daemon to completion: -hours stops it on
// its own, both stores reopen sealed and partitioned by time, and the
// window log holds the closed windows.
func TestBsmonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	err := run([]string{"-out", dir, "-spec", writeSpec(t, nil), "-hours", "2", "-rotate", "30m",
		"-serve-addr", "127.0.0.1:0", "-pace", "0"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	// 2 virtual hours at 30m rotation means multiple sealed segments.
	for _, mon := range []string{"us", "de"} {
		store := reopenClean(t, filepath.Join(dir, "mon-"+mon+".segments"))
		if segs := store.Segments(); len(segs) < 2 {
			t.Errorf("%s: segments = %d, want >= 2 (rotation not happening)", mon, len(segs))
		}
	}
	if n := windowLogLines(t, dir); n < 1 {
		t.Fatalf("window log holds %d windows, want >= 1", n)
	}
}

// TestBsmonMatchesSweepRun: a bounded daemon and a sweep run of one spec
// record the same world. Each monitor's store holds the same entries, and a
// daemon window spanning the whole capture reports the run's fig6 numbers.
func TestBsmonMatchesSweepRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	specFile := writeSpec(t, func(sw *sweep.SweepSpec) {
		sw.Base.Window = sweep.D(2 * time.Hour)
		sw.Base.Crawl, sw.Base.Probes = false, false
	})
	sw, err := sweep.LoadSweep(specFile)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sweep.Expand(sw)
	if err != nil {
		t.Fatal(err)
	}
	runDir := t.TempDir()
	sum, err := sweep.ExecuteRun(runDir, runs[0])
	if err != nil {
		t.Fatal(err)
	}

	daemon := func(extra ...string) string {
		dir := t.TempDir()
		args := append([]string{"-out", dir, "-spec", specFile, "-hours", "2", "-pace", "0",
			"-rotate", "30m", "-compact-run", "2", "-serve-addr", "127.0.0.1:0"}, extra...)
		if err := run(args); err != nil {
			t.Fatalf("run %v: %v", extra, err)
		}
		return dir
	}
	monDir := daemon()
	for _, mon := range []string{"us", "de"} {
		store := "mon-" + mon + ".segments"
		if got, want := storeCSVHash(t, filepath.Join(monDir, store)), storeCSVHash(t, filepath.Join(runDir, store)); got != want {
			t.Errorf("monitor %s: daemon store CSV sha256 %s, sweep run %s", mon, got, want)
		}
	}

	res := windowLog(t, daemon("-window", "24h", "-window-reports", "fig6"))
	if len(res) != 1 {
		t.Fatalf("window log holds %d windows, want 1", len(res))
	}
	fig6 := res[0].Metrics["fig6"]
	for _, k := range []string{"gateway_rps", "megagate_rps", "non_gateway_rps"} {
		if got, want := fig6[k], sum.Metrics["fig6:"+k]; got != want {
			t.Errorf("fig6 %s: daemon window %v, sweep run %v", k, got, want)
		}
	}
	if fig6["megagate_rps"] <= 0 {
		t.Errorf("fig6 megagate_rps = %v, want > 0", fig6["megagate_rps"])
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
		{"-nodes", "80"},
		{"-seed", "1"},
		{"-spec", filepath.Join(t.TempDir(), "missing.json")},
		{"-spec", writeSpec(t, func(sw *sweep.SweepSpec) { sw.Seeds.Replicates = 2 })},
		{"-spec", writeSpec(t, func(sw *sweep.SweepSpec) {
			sw.Base.Crawl = false
			sw.Base.WorkloadSource = &replay.Spec{Mode: replay.ModeDirect, Inputs: []string{"in.segments"}}
		})},
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

// storeCSVHash is the sha256 of a segment store read back as CSV.
func storeCSVHash(t *testing.T, dir string) string {
	t.Helper()
	sources, cleanup, err := ingest.OpenInputs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	h := sha256.New()
	cw := trace.NewCSVWriter(h)
	if _, err := ingest.Copy(cw, sources[0]); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// windowLog parses DIR/windows.jsonl, one report.WindowResult per line.
func windowLog(t *testing.T, dir string) []report.WindowResult {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "windows.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []report.WindowResult
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var res report.WindowResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad window log line %d: %v", len(out), err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// windowLogLines is the number of windows in DIR/windows.jsonl.
func windowLogLines(t *testing.T, dir string) int { return len(windowLog(t, dir)) }
