package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// v1SummaryJSON is a verbatim PR-4-era (schema version 1) summary.json:
// typed fields only, no metrics map. It must keep loading through the
// metrics-by-name surface.
const v1SummaryJSON = `{
  "version": 1,
  "run_id": "nodes=60,mean_session=2h-s42",
  "seed": 42,
  "params": [
    {"key": "nodes", "value": 60},
    {"key": "mean_session", "value": "2h"}
  ],
  "population": 73,
  "online_avg": 55.5,
  "entries": 1234,
  "dedup_entries": 700,
  "requests": 1100,
  "dedup_requests": 640,
  "rebroad_share": 0.43,
  "unique_peers": 58,
  "unique_cids": 91,
  "distinct_peers_est": 57.2,
  "distinct_cids_est": 90.4,
  "per_type": {"WANT_HAVE": 900, "CANCEL": 134},
  "monitor_coverage": {"us": 0.52, "de": 0.47},
  "peer_overlap": 0.31,
  "gateway_share": 0.27,
  "gateway_hit_rate": 0.66,
  "elapsed_ms": 1200
}
`

// TestReadSummaryV1Migration: a version-1 summary loads, and every metric —
// canonical names and coverage addressing — resolves by name through the
// new lookup even though the file carries no metrics map.
func TestReadSummaryV1Migration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "summary.json")
	if err := os.WriteFile(path, []byte(v1SummaryJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := ReadSummary(path)
	if err != nil {
		t.Fatalf("v1 summary rejected: %v", err)
	}
	want := map[string]float64{
		"entries":          1234,
		"dedup_entries":    700,
		"requests":         1100,
		"dedup_requests":   640,
		"rebroad_share":    0.43,
		"unique_peers":     58,
		"unique_cids":      91,
		"peer_overlap":     0.31,
		"gateway_share":    0.27,
		"gateway_hit_rate": 0.66,
		"online_avg":       55.5,
		"population":       73,
		"coverage:us":      0.52,
		"coverage:de":      0.47,
	}
	for name, v := range want {
		got, err := sum.Metric(name)
		if err != nil {
			t.Errorf("metric %s: %v", name, err)
			continue
		}
		if got != v {
			t.Errorf("metric %s = %v, want %v", name, got, v)
		}
	}
	// The migrated map itself must carry every canonical name, so CSV
	// joins see identical columns for every schema version.
	for _, name := range KnownMetrics() {
		if _, ok := sum.Metrics[name]; !ok {
			t.Errorf("migration left canonical metric %q out of the map", name)
		}
	}
	if _, err := sum.Metric("coverage:jp"); err == nil {
		t.Error("unknown monitor accepted")
	}
	if _, err := sum.Metric("vibes"); err == nil {
		t.Error("unknown metric accepted")
	}
}

// v2SummaryJSON is a version-2 summary.json verbatim: the pinned run's
// summary as the last version-2 writer produced it (minus its wall-clock
// and sketched-estimate keys), each canonical metric both as a top-level
// key and in the metrics map.
const v2SummaryJSON = `{
  "dedup_entries": 795,
  "dedup_requests": 412,
  "entries": 1753,
  "gateway_hit_rate": 0.9122779187817259,
  "gateway_share": 0.8859223300970874,
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
  "online_avg": 63.25,
  "peer_overlap": 0.926829268292683,
  "per_type": {
    "CANCEL": 751,
    "WANT_BLOCK": 34,
    "WANT_HAVE": 968
  },
  "population": 135,
  "rebroad_share": 0.5464917284654878,
  "requests": 1002,
  "run_id": "pinned",
  "seed": 42,
  "unique_cids": 314,
  "unique_peers": 40,
  "version": 2
}`

// v3SummaryJSON is a version-3 summary.json: each metric once, in the map.
const v3SummaryJSON = `{
  "version": 3,
  "run_id": "replayed",
  "seed": 3,
  "params": [
    {"key": "nodes", "value": 120}
  ],
  "per_type": {"WANT_HAVE": 300},
  "monitor_coverage": {"de": 0.05, "us": 0.046875},
  "metrics": {
    "dedup_entries": 187,
    "dedup_requests": 187,
    "entries": 300,
    "fitted_alpha": 0,
    "gateway_hit_rate": 0,
    "gateway_share": 0,
    "online_avg": 0,
    "peer_overlap": 0.25,
    "population": 256,
    "rebroad_share": 0.3766666666666667,
    "replay_events": 300,
    "replay_requesters": 12,
    "requests": 300,
    "unique_cids": 30,
    "unique_peers": 12
  },
  "elapsed_ms": 900
}
`

// The aggregates a version-2 reader produced over v1SummaryJSON and
// v2SummaryJSON alone: the long-form CSV, and the one-column table of each
// canonical metric by nodes.
const v12CSV = `run_id,seed,param:mean_session,param:nodes,dedup_entries,dedup_requests,entries,fitted_alpha,gateway_hit_rate,gateway_share,online_avg,peer_overlap,population,rebroad_share,replay_events,replay_requesters,requests,unique_cids,unique_peers,coverage:de,coverage:us
"nodes=60,mean_session=2h-s42",42,2h,60,700,640,1234,0,0.66,0.27,55.5,0.31,73,0.43,0,0,1100,91,58,0.47,0.52
pinned,42,,,795,412,1753,0,0.9122779187817259,0.8859223300970874,63.25,0.926829268292683,135,0.5464917284654878,0,0,1002,314,40,0.2962962962962963,0.28888888888888886
`

var v12Tables = map[string]string{
	"dedup_entries":     "nodes\\,all\n(base),795\n60,700\n",
	"dedup_requests":    "nodes\\,all\n(base),412\n60,640\n",
	"entries":           "nodes\\,all\n(base),1753\n60,1234\n",
	"fitted_alpha":      "nodes\\,all\n(base),0\n60,0\n",
	"gateway_hit_rate":  "nodes\\,all\n(base),0.9122779187817259\n60,0.66\n",
	"gateway_share":     "nodes\\,all\n(base),0.8859223300970874\n60,0.27\n",
	"online_avg":        "nodes\\,all\n(base),63.25\n60,55.5\n",
	"peer_overlap":      "nodes\\,all\n(base),0.926829268292683\n60,0.31\n",
	"population":        "nodes\\,all\n(base),135\n60,73\n",
	"rebroad_share":     "nodes\\,all\n(base),0.5464917284654878\n60,0.43\n",
	"replay_events":     "nodes\\,all\n(base),0\n60,0\n",
	"replay_requesters": "nodes\\,all\n(base),0\n60,0\n",
	"requests":          "nodes\\,all\n(base),1002\n60,1100\n",
	"unique_cids":       "nodes\\,all\n(base),314\n60,91\n",
	"unique_peers":      "nodes\\,all\n(base),40\n60,58\n",
}

// TestReadSummaryEveryVersion: summaries of all three schema versions load
// side by side, and aggregating them gives the version-1 and version-2 rows
// exactly the bytes a version-2 reader gave them.
func TestReadSummaryEveryVersion(t *testing.T) {
	dir := t.TempDir()
	var recs []*RunSummary
	for i, blob := range []string{v1SummaryJSON, v2SummaryJSON, v3SummaryJSON} {
		path := filepath.Join(dir, fmt.Sprintf("summary-%d.json", i+1))
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		sum, err := ReadSummary(path)
		if err != nil {
			t.Fatalf("version %d summary rejected: %v", i+1, err)
		}
		recs = append(recs, sum)
	}

	// Runs sort by ID, so the v1 and v2 lines come first, under the same
	// header (v3 adds no column), and the v3 run follows.
	long := CSV(recs)
	if !strings.HasPrefix(long, v12CSV) {
		t.Errorf("long CSV moved for the v1/v2 rows:\n%s\nwant prefix:\n%s", long, v12CSV)
	}
	if rest := strings.TrimPrefix(long, v12CSV); !strings.HasPrefix(rest, "replayed,3,,120,187,187,300,") || strings.Count(rest, "\n") != 1 {
		t.Errorf("long CSV v3 row: %q", rest)
	}

	for _, metric := range KnownMetrics() {
		tbl, err := ComputeTable(recs, "nodes", "", metric)
		if err != nil {
			t.Fatal(err)
		}
		// Rows sort lexically ("(base)", "120", "60"): drop the v3 row.
		var kept []string
		for _, line := range strings.SplitAfter(tbl.CSV(), "\n") {
			if !strings.HasPrefix(line, "120,") {
				kept = append(kept, line)
			}
		}
		if got := strings.Join(kept, ""); got != v12Tables[metric] {
			t.Errorf("%s table moved for the v1/v2 rows:\n%s\nwant:\n%s", metric, got, v12Tables[metric])
		}
	}
}

// TestReadSummaryVersionBounds: future schema versions are rejected, not
// silently misread.
func TestReadSummaryVersionBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "summary.json")
	bad := strings.Replace(v1SummaryJSON, `"version": 1`, `"version": 99`, 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSummary(path); err == nil {
		t.Error("version 99 summary accepted")
	}
}

// TestMetricExtras: report-contributed extras resolve by name, surface in
// MetricNames, and show up in the unknown-metric hint.
func TestMetricExtras(t *testing.T) {
	sum := &RunSummary{
		Version: SummaryVersion,
		RunID:   "r1",
		Metrics: map[string]float64{"entries": 10, "fig5:cids": 42},
	}
	if v, err := sum.Metric("fig5:cids"); err != nil || v != 42 {
		t.Errorf("extra metric: v=%v err=%v", v, err)
	}
	found := false
	for _, name := range sum.MetricNames() {
		if name == "fig5:cids" {
			found = true
		}
	}
	if !found {
		t.Error("MetricNames missing the extra")
	}
	if _, err := sum.Metric("vibes"); err == nil || !strings.Contains(err.Error(), "fig5:cids") {
		t.Errorf("unknown-metric error should hint at extras: %v", err)
	}
}

// TestSpecReportsValidation: extra report names on a spec are validated
// against the registry.
func TestSpecReportsValidation(t *testing.T) {
	spec := DefaultSpec()
	spec.Reports = []string{"fig5"}
	if err := spec.Validate(); err != nil {
		t.Errorf("known report rejected: %v", err)
	}
	spec.Reports = []string{"nope"}
	if err := spec.Validate(); err == nil {
		t.Error("unknown report accepted")
	}
	// summary and traffic always run; listing them would double the work
	// and duplicate metric columns.
	for _, builtin := range []string{"summary", "traffic"} {
		spec.Reports = []string{builtin}
		if err := spec.Validate(); err == nil {
			t.Errorf("built-in report %q accepted as extra", builtin)
		}
	}
}
