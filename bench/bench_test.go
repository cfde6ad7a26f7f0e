package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bitswapmon/internal/cmdutil"
)

// testScale runs every workload at 1/50 of its measured size.
const testScale = 0.02

// runSmall runs one workload in-process the way a child process does.
func runSmall(t *testing.T, w workloadDef, mode string) *env {
	t.Helper()
	v := newEnv(42, sizesFor(testScale), t.TempDir(), mode)
	if err := w.run(v); err != nil {
		t.Fatalf("%s (%s): %v", w.name, mode, err)
	}
	if v.traced {
		if err := v.commonLayers(); err != nil {
			t.Fatalf("%s (%s): layers: %v", w.name, mode, err)
		}
	}
	if v.res.Failed != 0 || v.res.Attempted == 0 {
		t.Errorf("%s (%s): %d of %d operations failed: %v", w.name, mode, v.res.Failed, v.res.Attempted, v.res.Failures)
	}
	if v.res.WallS <= 0 || v.res.SetupS <= 0 || v.res.Units <= 0 || v.res.PeakRSSMB <= 0 ||
		v.res.DiskBytes <= 0 || v.res.EntriesStored <= 0 || v.res.OutputSHA256 == "" {
		t.Errorf("%s (%s): incomplete result %+v", w.name, mode, v.res)
	}
	return v
}

// TestWorkloadsSmall takes every workload through the measured code path,
// untraced and traced, and asserts every correctness check. The traced rep
// must produce the same unified CSV and every per-layer metric must be one
// the manifest declares.
func TestWorkloadsSmall(t *testing.T) {
	sums := make(map[string]string)
	for _, w := range workloads {
		sums[w.name] = runSmall(t, w, modeTimed).res.OutputSHA256
	}
	// Instrumentation is process-wide and cannot be turned off again, so
	// every untraced rep runs before the first traced one.
	cmdutil.EnableAllMetrics()
	declared := make(map[string]bool)
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	for _, w := range workloads {
		v := runSmall(t, w, modeTraced)
		if v.res.OutputSHA256 != sums[w.name] {
			t.Errorf("%s: traced rep's output_sha256 differs from the untraced rep's", w.name)
		}
		for name := range v.res.Layers {
			if !declared[name] {
				t.Errorf("%s: per-layer metric %q is not in the manifest", w.name, name)
			}
		}
		if cov := v.res.Layers["harness.span_coverage_pct"]; cov < 90 || cov > 101 {
			t.Errorf("%s: layer self times cover %.1f %% of wall_s", w.name, cov)
		}
	}
}

func TestShardedScenarioSmall(t *testing.T) {
	cmdutil.EnableAllMetrics()
	v := newEnv(42, sizesFor(testScale), t.TempDir(), modeSharded)
	if err := runScenario(v, "sharded"); err != nil {
		t.Fatal(err)
	}
	if v.res.Failed != 0 {
		t.Errorf("%d of %d operations failed: %v", v.res.Failed, v.res.Attempted, v.res.Failures)
	}
	for _, name := range shardedLayerNames {
		if v.res.Layers[name] <= 0 {
			t.Errorf("%s = %v, want a positive count", name, v.res.Layers[name])
		}
	}
}

func TestFeedIsDeterministic(t *testing.T) {
	sz := sizesFor(testScale)
	a, err := genFeed(7, sz, 2000, captureSpan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genFeed(7, sz, 2000, captureSpan)
	if err != nil {
		t.Fatal(err)
	}
	for m := range a.mon {
		if !sameEntries(a.mon[m], b.mon[m]) {
			t.Errorf("monitor %s: same seed gave different feeds", monitorNames[m])
		}
	}
	c, err := genFeed(8, sz, 2000, captureSpan)
	if err != nil {
		t.Fatal(err)
	}
	if sameEntries(a.mon[0], c.mon[0]) {
		t.Error("different seeds gave the same feed")
	}
	merged := a.merged()
	if len(merged) != a.entries {
		t.Fatalf("merged %d entries, feed has %d", len(merged), a.entries)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Timestamp.Before(merged[i-1].Timestamp) {
			t.Fatalf("merged feed goes back in time at %d", i)
		}
	}
}

// TestManifestMatchesBenchmarkJSON keeps the file the driver reads equal to
// the tables the program prints from.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh manifest > BENCHMARK.json`")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got := spread([]float64{1, 2, 3, 4, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 14, 15, 16, 17, 18, 19], n=4) == [11.75, 14.5, 17.25]
	if got := spread([]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}); math.Abs(got-5.5/14.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 5.5/14.5)
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{"wall_s", "s", lower, 0.10}
	rate := metricDef{"throughput_per_s", "1/s", higher, 0.10}
	steady := []float64{1.00, 1.01, 1.02, 1.01, 1.00}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", wall, steady, steady, "ok"},
		{"slower", wall, steady, []float64{1.20, 1.21, 1.22, 1.21, 1.20}, "worse"},
		{"faster", wall, steady, []float64{0.80, 0.81, 0.82, 0.81, 0.80}, "ok"},
		{"lower rate", rate, steady, []float64{0.80, 0.81, 0.82, 0.81, 0.80}, "worse"},
		{"higher rate", rate, steady, []float64{1.20, 1.21, 1.22, 1.21, 1.20}, "ok"},
		{"noisy overlap", wall, steady, []float64{0.90, 1.30, 1.00, 1.40, 1.10}, "unresolved"},
		{"noisy but slower throughout", wall, steady, []float64{1.30, 1.60, 1.40, 1.90, 1.50}, "worse"},
		{"noisy but faster throughout", wall, steady, []float64{0.50, 0.90, 0.60, 0.80, 0.70}, "ok"},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCPUShares encodes a small profile by hand and checks both the decoder
// and the attribution rules.
func TestCPUShares(t *testing.T) {
	names := []string{"",
		"runtime.mallocgc",
		"bitswapmon/internal/dht.(*DHT).HandleMessage",
		"bitswapmon/internal/simnet.(*Network).Run",
		"runtime.gcBgMarkWorker",
		"main.runScenario",
		"runtime.mcall",
		"bitswapmon/internal/trace.(*Writer).Write",
		"compress/flate.(*compressor).deflate",
	}
	var prof []byte
	for id := 1; id < len(names); id++ {
		// Function id == name index; location id == function id, except
		// location 20, which inlines flate (8) into trace (7).
		prof = appendMessage(prof, profileFunctionField, appendVarintField(appendVarintField(nil, functionIDField, uint64(id)), functionNameField, uint64(id)))
		line := appendVarintField(nil, lineFunctionField, uint64(id))
		prof = appendMessage(prof, profileLocationField, appendMessage(appendVarintField(nil, locationIDField, uint64(id)), locationLineField, line))
	}
	inlined := appendVarintField(nil, locationIDField, 20)
	inlined = appendMessage(inlined, locationLineField, appendVarintField(nil, lineFunctionField, 8))
	inlined = appendMessage(inlined, locationLineField, appendVarintField(nil, lineFunctionField, 7))
	prof = appendMessage(prof, profileLocationField, inlined)
	for _, name := range names {
		prof = appendMessage(prof, profileStringField, []byte(name))
	}
	for _, s := range []struct {
		stack []uint64 // leaf first
		count uint64
	}{
		{[]uint64{1, 2, 3, 5}, 4}, // malloc under a dht handler under the engine: dht
		{[]uint64{3, 5}, 2},       // the engine's own loop: simnet counts as engine
		{[]uint64{4}, 1},          // background GC worker
		{[]uint64{1, 5}, 1},       // the harness's own allocation
		{[]uint64{6}, 1},          // scheduler
		{[]uint64{20, 5}, 1},      // flate inlined into the trace codec: trace
	} {
		var locs, vals []byte
		for _, l := range s.stack {
			locs = binary.AppendUvarint(locs, l)
		}
		vals = binary.AppendUvarint(vals, s.count)
		vals = binary.AppendUvarint(vals, s.count*10_000_000)
		prof = appendMessage(prof, profileSampleField, appendMessage(appendMessage(nil, sampleLocationField, locs), sampleValueField, vals))
	}

	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(prof)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, zipped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"dht": 0.4, "engine": 0.2, bucketGC: 0.1, bucketHarness: 0.1, bucketOther: 0.1, "trace": 0.1}
	if len(shares) != len(want) {
		t.Errorf("shares = %v, want %v", shares, want)
	}
	for bucket, share := range want {
		if math.Abs(shares[bucket]-share) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", bucket, shares[bucket], share)
		}
	}
}

func appendVarintField(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func appendMessage(b []byte, field int, msg []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(msg))), msg...)
}
