package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// measurements returns one bare and one instrumented measurement for each
// given benchmark name.
func measurements(names ...string) (bare, instrumented map[string]*Measurement) {
	bare, instrumented = map[string]*Measurement{}, map[string]*Measurement{}
	for _, n := range names {
		bare[n] = &Measurement{N: 1, NsPerOp: 100}
		instrumented[n] = &Measurement{N: 1, NsPerOp: 103}
	}
	return bare, instrumented
}

// TestEmitWritesOnlyCompleteFiles: a run restricted by -only must leave a
// BENCH file alone when it measured only some of its benchmarks, print the
// rows it did measure, and still return them for the budget checks.
func TestEmitWritesOnlyCompleteFiles(t *testing.T) {
	dir := t.TempDir()
	engineFile := filepath.Join(dir, "BENCH_engine.json")
	const committed = `{"benchmarks": "rows from an earlier full run"}`
	if err := os.WriteFile(engineFile, []byte(committed), 0o644); err != nil {
		t.Fatal(err)
	}
	only := regexp.MustCompile("SimnetEventLoop")
	bare, inst := measurements("BenchmarkSimnetEventLoop")
	var out bytes.Buffer
	entries, err := emit(&out, dir, File{}, only.MatchString, bare, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(engineFile); string(got) != committed {
		t.Errorf("partial run rewrote BENCH_engine.json:\n%s", got)
	}
	if len(entries) != 1 || entries[0].Name != "BenchmarkSimnetEventLoop" || entries[0].OverheadPct != 3 {
		t.Errorf("entries = %+v, want the one measured row at 3%% overhead", entries)
	}
	if !strings.Contains(out.String(), "BENCH_engine.json not written") || !strings.Contains(out.String(), `"BenchmarkSimnetEventLoop"`) {
		t.Errorf("measured rows not printed:\n%s", out.String())
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json")); len(files) != 1 {
		t.Errorf("files after a partial run: %v, want only the committed one", files)
	}

	// Selecting a whole file's benchmarks writes that file, sub-benchmarks
	// included, and no other.
	only = regexp.MustCompile("ReplayDrive|SimnetEventLoop|EngineScaling")
	bare, inst = measurements("BenchmarkReplayDrive", "BenchmarkSimnetEventLoop",
		"BenchmarkEngineScaling/serial", "BenchmarkEngineScaling/sharded-8")
	traced := map[string]*Measurement{"BenchmarkReplayDrive": {N: 1, NsPerOp: 150}}
	out.Reset()
	if _, err := emit(&out, dir, File{Commit: "abc"}, only.MatchString, bare, inst, traced); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(engineFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc File
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range doc.Benchmarks {
		names = append(names, e.Name)
	}
	want := "BenchmarkReplayDrive BenchmarkSimnetEventLoop BenchmarkEngineScaling/serial BenchmarkEngineScaling/sharded-8"
	if doc.Commit != "abc" || strings.Join(names, " ") != want || doc.Benchmarks[0].TraceOverheadPct != 50 {
		t.Errorf("BENCH_engine.json = %s", blob)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json")); len(files) != 1 {
		t.Errorf("files after an engine-only run: %v", files)
	}

	// A selected benchmark with no result line is an error, not a gap.
	if _, err := emit(&out, dir, File{}, only.MatchString, map[string]*Measurement{}, inst, nil); err == nil {
		t.Error("missing bare measurement accepted")
	}
}

func TestParseBenchOutput(t *testing.T) {
	t.Setenv("GOMAXPROCS", "8")
	out := `goos: linux
BenchmarkReplayDrive-8   	      98	  11207246 ns/op	   1784565 events/sec	 3033072 B/op	    3223 allocs/op
BenchmarkReplayDrive-8   	     100	  10794916 ns/op	   1852730 events/sec	 3033143 B/op	    3223 allocs/op
BenchmarkEngineScaling/sharded-8-8         	       1	2378375196 ns/op	    165436 events/sec	366033200 B/op	 1250609 allocs/op
BenchmarkEngineScaling/sharded-8-100k-8    	       1	9000000000 ns/op
PASS
`
	got, err := parseBenchOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	if m := got["BenchmarkReplayDrive"]; m == nil || m.N != 100 || m.NsPerOp != 10794916 || m.EventsPerSec != 1852730 {
		t.Errorf("ReplayDrive kept %+v, want the faster of the two lines", m)
	}
	if m := got["BenchmarkEngineScaling/sharded-8"]; m == nil || m.BytesPerOp != 366033200 || m.AllocsPerOp != 1250609 {
		t.Errorf("sharded-8 = %+v (GOMAXPROCS suffix must go, the shard count must stay)", m)
	}
	if got["BenchmarkEngineScaling/sharded-8-100k"] == nil {
		t.Errorf("sharded-8-100k missing: %v", got)
	}

	t.Setenv("GOMAXPROCS", "1")
	got, err = parseBenchOutput("BenchmarkEngineScaling/sharded-8   1   5 ns/op\n")
	if err != nil || got["BenchmarkEngineScaling/sharded-8"] == nil {
		t.Errorf("GOMAXPROCS=1 (no suffix printed): %v, %v", got, err)
	}
	if _, err := parseBenchOutput("PASS\n"); err == nil {
		t.Error("output without benchmark lines accepted")
	}
	if _, err := parseBenchOutput("BenchmarkX-8 1 fast ns/op\n"); err == nil {
		t.Error("malformed value accepted")
	}
}
