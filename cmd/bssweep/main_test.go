package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bitswapmon/internal/sweep"
)

const testSweepJSON = `{
  "version": 1,
  "name": "cli-test",
  "base": {
    "version": 1,
    "nodes": 18,
    "bootstrap_servers": 5,
    "catalog_items": 60,
    "active_frac": 0.9,
    "mean_requests_per_hour": 60,
    "monitors": [
      {"name": "us", "region": "US"},
      {"name": "de", "region": "DE"}
    ],
    "joint": {"both": 0.8, "only_a": 0.1, "only_b": 0.1},
    "gateways": [],
    "warmup": "5m",
    "window": "20m",
    "sample_every": "10m"
  },
  "axes": [{"param": "nodes", "values": [14, 20]}],
  "seeds": {"base": 42, "replicates": 1}
}
`

func TestBssweepRunAndReport(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(specPath, []byte(testSweepJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(dir, "root")

	if err := run([]string{"run", "-spec", specPath, "-dry-run"}); err != nil {
		t.Fatalf("dry-run: %v", err)
	}
	if err := run([]string{"run", "-spec", specPath, "-root", root, "-workers", "2"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	// resume over a finished sweep is a no-op, not an error.
	if err := run([]string{"resume", "-root", root}); err != nil {
		t.Fatalf("resume: %v", err)
	}

	csvPath := filepath.Join(dir, "out.csv")
	if err := run([]string{"report", "-root", root, "-csv", csvPath}); err != nil {
		t.Fatalf("report: %v", err)
	}
	a, err := os.ReadFile(csvPath)
	if err != nil || len(a) == 0 {
		t.Fatalf("no csv written: %v", err)
	}
	// Reports are deterministic across invocations.
	if err := run([]string{"report", "-root", root, "-csv", csvPath}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("report CSV differs between invocations")
	}

	if err := run([]string{"report", "-root", root, "-rows", "nodes", "-metric", "entries"}); err != nil {
		t.Fatalf("table report: %v", err)
	}
	if err := run([]string{"params"}); err != nil {
		t.Fatal(err)
	}
}

func TestBssweepErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"run"}); err == nil {
		t.Error("run without -spec accepted")
	}
	// Tracing is the spec's trace and trace_sample keys, not a flag.
	if err := run([]string{"run", "-spec", "x.json", "-trace"}); err == nil {
		t.Error("run -trace accepted")
	}
	if err := run([]string{"resume", "-root", filepath.Join(t.TempDir(), "nope")}); err == nil {
		t.Error("resume of a rootless directory accepted")
	}
	if err := run([]string{"report", "-root", t.TempDir()}); err == nil {
		t.Error("report over an empty root accepted")
	}
	if err := run([]string{"report", "-root", t.TempDir(), "-rows", "nodes"}); err == nil {
		t.Error("table report without -metric accepted")
	}
}

// TestBssweepPresets: every preset prints a sweep spec that parses and
// expands to one run of exactly the Go preset, and params lists the presets,
// the crawl panels' metrics and the spec keys.
func TestBssweepPresets(t *testing.T) {
	for name, want := range map[string]sweep.ScenarioSpec{
		"small":   sweep.DefaultSpec(),
		"week":    sweep.WeekSpec(),
		"upgrade": sweep.UpgradeSpec(150, 3),
	} {
		var out bytes.Buffer
		if err := cmdPreset(&out, []string{name}); err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		sw, err := sweep.ParseSweep(out.Bytes())
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		runs, err := sweep.Expand(sw)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if len(runs) != 1 || !reflect.DeepEqual(runs[0].Spec, want) {
			t.Errorf("preset %s expands to %+v, want one run of %+v", name, runs, want)
		}
	}
	err := run([]string{"preset", "nope"})
	if err == nil || !strings.Contains(err.Error(), "small, upgrade, week") {
		t.Errorf("unknown preset: %v, want an error listing the presets", err)
	}

	var params bytes.Buffer
	if err := cmdParams(&params); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"secvc:<metric>", "fig3:<metric>", "small, upgrade, week",
		"  trace_sample\n", "  workload_source.time_warp\n"} {
		if !strings.Contains(params.String(), want) {
			t.Errorf("params does not list %q:\n%s", want, params.String())
		}
	}
}
