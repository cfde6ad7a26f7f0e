package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/trace"
)

// The constants below pin ExecuteRun's output for one small synthetic run
// (DefaultSpec at 120 nodes, 2 h window, 30 m warm-up, 500 items, seed 42).
// They were computed before the measurement procedure moved into Measure
// and must not move: the stores hold the same bytes, the summary the same
// numbers.
const (
	pinnedStoreUS = "f5117a3830bd937c18c58e022f06156bd4f61c764a0c6e64583f75bd522171e4"
	pinnedStoreDE = "0008333055996bcb3cd2f5668f30ec5e43858db46c80e434d921516c814e458a"
	// pinnedSummary is summary.json without its wall-clock field and the
	// two sketched estimates it carried when the pin was taken.
	pinnedSummary = `{
  "gateways_identified": 28,
  "gateways_probed": 28,
  "metrics": {
    "dedup_entries": 795,
    "dedup_requests": 412,
    "entries": 1753,
    "fitted_alpha": 0,
    "gateway_hit_rate": 0.9122779187817259,
    "gateway_share": 0.8859223300970874,
    "online_avg": 63.25,
    "peer_overlap": 0.926829268292683,
    "population": 135,
    "rebroad_share": 0.5464917284654878,
    "replay_events": 0,
    "replay_requesters": 0,
    "requests": 1002,
    "unique_cids": 314,
    "unique_peers": 40
  },
  "monitor_coverage": {
    "de": 0.2962962962962963,
    "us": 0.28888888888888886
  },
  "per_type": {
    "CANCEL": 751,
    "WANT_BLOCK": 34,
    "WANT_HAVE": 968
  },
  "run_id": "pinned",
  "seed": 42,
  "version": 3
}`
	// pinnedReplaySummary is summary.json, without its wall-clock field, of
	// the direct-replay run TestSweepDirectReplayRun builds. It was taken
	// while replay runs still had a runner of their own (executeReplayRun)
	// and must not move.
	pinnedReplaySummary = `{
  "metrics": {
    "dedup_entries": 187,
    "dedup_requests": 187,
    "entries": 300,
    "fitted_alpha": 0,
    "gateway_hit_rate": 0,
    "gateway_share": 0,
    "online_avg": 0,
    "peer_overlap": 0,
    "population": 256,
    "rebroad_share": 0.3766666666666667,
    "replay_events": 300,
    "replay_requesters": 12,
    "requests": 300,
    "unique_cids": 30,
    "unique_peers": 12
  },
  "monitor_coverage": {
    "us": 0.046875
  },
  "per_type": {
    "WANT_HAVE": 300
  },
  "run_id": "direct",
  "seed": 3,
  "version": 3
}`
)

func pinnedRun() Run {
	spec := DefaultSpec()
	spec.Nodes = 120
	spec.Window = D(2 * time.Hour)
	spec.Warmup = D(30 * time.Minute)
	spec.CatalogItems = 500
	return Run{ID: "pinned", Seed: 42, Spec: spec}
}

// storeCSVHash hashes every entry of a sealed monitor store as CSV.
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

func TestExecuteRunPinnedOutput(t *testing.T) {
	dir := t.TempDir()
	if _, err := ExecuteRun(dir, pinnedRun()); err != nil {
		t.Fatal(err)
	}
	for mon, want := range map[string]string{"us": pinnedStoreUS, "de": pinnedStoreDE} {
		if got := storeCSVHash(t, monitorStoreDir(dir, mon)); got != want {
			t.Errorf("monitor %s store CSV sha256 = %s, want %s", mon, got, want)
		}
	}

	// The sketched estimates were dropped from the summary after the pin
	// was taken; summaries written before that still carry them.
	got := summaryWithout(t, dir, "elapsed_ms", "distinct_peers_est", "distinct_cids_est")
	if got != pinnedSummary {
		t.Errorf("summary.json moved:\n%s\nwant:\n%s", got, pinnedSummary)
	}
}

// summaryWithout re-renders a run directory's summary.json with the named
// keys removed from the top level and from the metrics map.
func summaryWithout(t *testing.T, dir string, dropped ...string) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, summaryFile))
	if err != nil {
		t.Fatal(err)
	}
	var sum map[string]any
	if err := json.Unmarshal(blob, &sum); err != nil {
		t.Fatal(err)
	}
	for _, k := range dropped {
		delete(sum, k)
		delete(sum["metrics"].(map[string]any), k)
	}
	got, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}
