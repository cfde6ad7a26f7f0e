package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/report"
	"bitswapmon/internal/trace"
)

// The constants below pin ExecuteRun's output for one small synthetic run
// (DefaultSpec at 120 nodes, 2 h window, 30 m warm-up, 500 items, seed 42,
// probes on, no crawl). They were first computed before the measurement
// procedure moved into Measure, and re-taken once when the stores began to
// be sealed at the window's end: that dropped the 274 entries (163 requests,
// all 34 WANT_BLOCKs among them) the probes phase used to add after the
// window, 1,753 → 1,479, and moved the peer sets behind coverage and
// overlap and the gateway hit rate to the window's end. Otherwise they must
// not move: the stores hold the same bytes, the summary the same numbers.
const (
	pinnedStoreUS = "a7aa83d697ed1c8904b3a7b2f6fdc67db34bf6c5f652e115356122a260f0eba3"
	pinnedStoreDE = "4d5f15748419559ef837c441c1cb5165a6984d16c06562ddbb41e785197614a2"
	// pinnedSummary is summary.json without its wall-clock field and the
	// two sketched estimates it carried when the pin was taken.
	pinnedSummary = `{
  "gateways_identified": 28,
  "gateways_probed": 28,
  "metrics": {
    "dedup_entries": 655,
    "dedup_requests": 328,
    "entries": 1479,
    "fitted_alpha": 0,
    "gateway_hit_rate": 0.9115944571127872,
    "gateway_share": 0.8689024390243902,
    "online_avg": 63.25,
    "peer_overlap": 0.8780487804878049,
    "population": 135,
    "rebroad_share": 0.5571331981068289,
    "replay_events": 0,
    "replay_requesters": 0,
    "requests": 839,
    "unique_cids": 261,
    "unique_peers": 40
  },
  "monitor_coverage": {
    "de": 0.28888888888888886,
    "us": 0.2814814814814815
  },
  "per_type": {
    "CANCEL": 640,
    "WANT_HAVE": 839
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

// pinnedRun is the run the store and summary pins were taken on, before
// DefaultSpec crawled and ran the week's reports.
func pinnedRun() Run {
	spec := DefaultSpec()
	spec.Nodes = 120
	spec.Window = D(2 * time.Hour)
	spec.Warmup = D(30 * time.Minute)
	spec.CatalogItems = 500
	spec.Crawl = false
	spec.Reports = nil
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

// tinySpec is DefaultSpec small enough that a run finishes in about a
// second, while still exercising monitors, gateways, churn, the crawl and
// probing.
func tinySpec() ScenarioSpec {
	s := DefaultSpec()
	s.Nodes = 150
	s.Window = D(3 * time.Hour)
	s.Warmup = D(30 * time.Minute)
	s.BootstrapIters = 10
	s.CatalogItems = 800
	return s
}

// pinnedWeekReport is the sha256 of report.txt of ExecuteRun(tinySpec,
// seed 42). It was first taken while the week scenario still had a runner
// of its own whose tables, figures, panels and probe counts it matched byte
// for byte, and re-taken once when the stores began to be sealed at the
// window's end: that dropped the 406 entries (232 requests) the crawl and
// the probes used to add after the window, 2,166 → 1,760, and moved the
// Sec. V-C peer sets and the Fig. 3 snapshot to the window's end. Otherwise
// it must not move.
const pinnedWeekReport = "eeec96d0ccee37e61de1e684bcb786a9c6e92d63a453d9f76b62a9e7edcf4585"

// TestRunWeekPinnedOutput: a run that crawled and probed carries the
// Sec. V-C panel and Fig. 3 in its summary and report.txt, and a probes
// section; report.txt is pinned.
func TestRunWeekPinnedOutput(t *testing.T) {
	dir := t.TempDir()
	sum, err := ExecuteRun(dir, Run{ID: "week", Seed: 42, Spec: tinySpec()})
	if err != nil {
		t.Fatal(err)
	}
	if v := sum.Metrics["secvc:crawl_seen"]; v <= 0 {
		t.Errorf("secvc:crawl_seen = %v, want a crawl that saw peers", v)
	}
	if v := sum.Metrics["fig3:peers"]; v <= 0 {
		t.Errorf("fig3:peers = %v", v)
	}
	sections := reportSections(t, dir)
	for _, name := range []string{"summary", "traffic", "table1", "table2", "fig5", "fig6", "secvc", "fig3", "probes"} {
		if _, ok := sections[name]; !ok {
			t.Errorf("report.txt has no %s section", name)
		}
	}
	blob, err := os.ReadFile(filepath.Join(dir, reportFile))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(blob)
	if got := hex.EncodeToString(h[:]); got != pinnedWeekReport {
		t.Errorf("report.txt sha256 = %s, want %s; report.txt:\n%s", got, pinnedWeekReport, blob)
	}

	// Without the crawl there is no panel.
	run := pinnedRun()
	sum, err = ExecuteRun(t.TempDir(), run)
	if err != nil {
		t.Fatal(err)
	}
	for k := range sum.Metrics {
		if strings.HasPrefix(k, "secvc:") || strings.HasPrefix(k, "fig3:") {
			t.Errorf("run without a crawl has metric %s", k)
		}
	}
}

// reportSections splits a run's report.txt into its "==== <name> ===="
// sections.
func reportSections(t *testing.T, dir string) map[string]string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, reportFile))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, part := range strings.Split(string(blob), "==== ")[1:] {
		name, body, _ := strings.Cut(part, " ====\n")
		out[name] = body
	}
	return out
}

// pinnedUpgradeCSV is the sha256 of the Fig. 4 CSV (bucket,want_block,
// want_have lines) of the 80-node, 2-week, seed-7 upgrade scenario, computed while the upgrade scenario still built
// its world and ran its window by hand. It must not move.
const pinnedUpgradeCSV = "079597272e65009039a4a44810252af66b8bcc1950975b5ec8aeb2c41c2f36b9"

// upgradeFig4 executes an upgrade run into dir and computes the paper's
// Fig. 4 over its store: raw requests in 24 h buckets, as
// bsanalyze -dedup=false -bucket 24h -report fig4 does.
func upgradeFig4(t *testing.T, dir string, spec ScenarioSpec) *report.Fig4 {
	t.Helper()
	if _, err := ExecuteRun(dir, Run{ID: "upgrade", Seed: spec.Seed, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	sources, cleanup, err := ingest.OpenInputs([]string{monitorStoreDir(dir, "us")})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	drv := report.NewDriver(false)
	if err := drv.AddByName([]string{"fig4"}, report.Options{Bucket: 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := drv.Run(ingest.NewStreamUnifier(sources...)); err != nil {
		t.Fatal(err)
	}
	results, err := drv.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return results.Get("fig4").(*report.Fig4)
}

func TestRunUpgradePinnedOutput(t *testing.T) {
	spec := UpgradeSpec(80, 2)
	spec.Seed = 7
	fig := upgradeFig4(t, t.TempDir(), spec)
	var csv strings.Builder
	csv.WriteString("bucket,want_block,want_have\n")
	for _, b := range fig.Buckets {
		fmt.Fprintf(&csv, "%s,%d,%d\n", b.Start.Format(time.RFC3339), b.WantBlock, b.WantHave)
	}
	h := sha256.Sum256([]byte(csv.String()))
	if got := hex.EncodeToString(h[:]); got != pinnedUpgradeCSV {
		t.Errorf("fig4 CSV sha256 = %s, want %s; CSV:\n%s", got, pinnedUpgradeCSV, csv.String())
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

// The span pin: ExecuteRun(tinySpec, seed 42) traced at a 0.25 sample rate
// with latency_breakdown listed. pinnedSpans is the sha256 of the run's
// trace.json.jsonl with every span's wall-clock field zeroed, and
// pinnedLatency the summary's latency_breakdown metrics. They were taken
// while the workload config, the replay spec and both worlds still each
// held a handle on the span recorder, and must not move while the recorder
// stays attached at world build. They were re-taken when the recorder's 8
// rings of 8,192 spans, picked by trace ID, became one buffer of 65,536:
// no span is dropped while the buffer has room, so ring_drops went 1797 → 0
// and spans 51437 → 53234.
const (
	pinnedSpans   = "06a1f576d264bc959b1bd522f698515fd7534b429eab7fffc300d3c7d1eb13c2"
	pinnedLatency = `{
  "latency_breakdown:count:bitswap.get": 545,
  "latency_breakdown:count:bitswap.local_hit": 182,
  "latency_breakdown:count:dht.lookup": 80,
  "latency_breakdown:count:dht.req": 2047,
  "latency_breakdown:count:dht.resp": 2047,
  "latency_breakdown:count:dht.rpc": 2047,
  "latency_breakdown:count:gateway.cache_hit": 2007,
  "latency_breakdown:count:gateway.cache_miss": 145,
  "latency_breakdown:count:gateway.fetch": 333,
  "latency_breakdown:count:gateway.request": 2152,
  "latency_breakdown:count:request": 29,
  "latency_breakdown:count:send.block": 890,
  "latency_breakdown:count:send.cancel": 16661,
  "latency_breakdown:count:send.resp": 1042,
  "latency_breakdown:count:send.want_block": 890,
  "latency_breakdown:count:send.want_have": 22071,
  "latency_breakdown:drops:bitswap.get": 8,
  "latency_breakdown:drops:gateway.request": 50,
  "latency_breakdown:drops:request": 8,
  "latency_breakdown:p50_ms:bitswap.get": 58.630853,
  "latency_breakdown:p50_ms:bitswap.local_hit": 0,
  "latency_breakdown:p50_ms:dht.lookup": 1004.915909,
  "latency_breakdown:p50_ms:dht.req": 56.426635,
  "latency_breakdown:p50_ms:dht.resp": 56.235631,
  "latency_breakdown:p50_ms:dht.rpc": 116.974587,
  "latency_breakdown:p50_ms:gateway.cache_hit": 0,
  "latency_breakdown:p50_ms:gateway.cache_miss": 0,
  "latency_breakdown:p50_ms:gateway.fetch": 0,
  "latency_breakdown:p50_ms:gateway.request": 0,
  "latency_breakdown:p50_ms:request": 85.792584,
  "latency_breakdown:p50_ms:send.block": 28.864375,
  "latency_breakdown:p50_ms:send.cancel": 61.817911,
  "latency_breakdown:p50_ms:send.resp": 60.742233,
  "latency_breakdown:p50_ms:send.want_block": 28.841669,
  "latency_breakdown:p50_ms:send.want_have": 60.37293,
  "latency_breakdown:p99_ms:bitswap.get": 432.611232,
  "latency_breakdown:p99_ms:bitswap.local_hit": 0,
  "latency_breakdown:p99_ms:dht.lookup": 1117.262991,
  "latency_breakdown:p99_ms:dht.req": 114.793794,
  "latency_breakdown:p99_ms:dht.resp": 114.485597,
  "latency_breakdown:p99_ms:dht.rpc": 222.285838,
  "latency_breakdown:p99_ms:gateway.cache_hit": 0,
  "latency_breakdown:p99_ms:gateway.cache_miss": 0,
  "latency_breakdown:p99_ms:gateway.fetch": 609.619617,
  "latency_breakdown:p99_ms:gateway.request": 424.264418,
  "latency_breakdown:p99_ms:request": 383.282011,
  "latency_breakdown:p99_ms:send.block": 116.343583,
  "latency_breakdown:p99_ms:send.cancel": 139.699271,
  "latency_breakdown:p99_ms:send.resp": 134.35121,
  "latency_breakdown:p99_ms:send.want_block": 116.619697,
  "latency_breakdown:p99_ms:send.want_have": 134.158917,
  "latency_breakdown:ring_drops": 0,
  "latency_breakdown:spans": 53234,
  "latency_breakdown:traces": 2239
}`
)

func TestTracedRunPinnedSpans(t *testing.T) {
	spec := tinySpec()
	spec.Trace, spec.TraceSample = true, 0.25
	spec.Reports = append(slices.Clone(spec.Reports), "latency_breakdown")
	dir := t.TempDir()
	sum, err := ExecuteRun(dir, Run{ID: "traced", Seed: 42, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "trace.json.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	for _, line := range lines {
		var s otrace.Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		s.WallNs = 0
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedSpans {
		t.Errorf("%d spans: sha256 without wall time = %s, want %s", len(lines), got, pinnedSpans)
	}
	latency := make(map[string]float64)
	for k, v := range sum.Metrics {
		if strings.HasPrefix(k, "latency_breakdown:") {
			latency[k] = v
		}
	}
	got, err := json.MarshalIndent(latency, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != pinnedLatency {
		t.Errorf("latency_breakdown metrics moved:\n%s\nwant:\n%s", got, pinnedLatency)
	}
}

// TestRunTraceChecksNesting: a traced run exports its spans only when every
// synchronous span lies within its parent's time bounds; a child that
// outlives its parent fails the run and leaves no trace.json behind.
func TestRunTraceChecksNesting(t *testing.T) {
	at := func(sec int64) time.Time { return time.Unix(sec, 0) }
	forest := func(childEnd int64) *otrace.Tracer {
		tr := otrace.New(otrace.Config{Sample: 1, Seed: 1})
		root := tr.Root(7, "request", "n1", at(0))
		tr.Start(root.Ctx(), "bitswap.get", "n1", at(1)).End(at(childEnd))
		root.End(at(3))
		return tr
	}
	dir := t.TempDir()
	err := writeRunTrace(dir, forest(5))
	if err == nil || !strings.Contains(err.Error(), "outside parent") {
		t.Fatalf("child ending after its parent: err = %v, want a nesting violation", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); !os.IsNotExist(err) {
		t.Errorf("trace.json written for a span forest that does not nest (stat err %v)", err)
	}
	if err := writeRunTrace(dir, forest(2)); err != nil {
		t.Fatalf("nested forest: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json.jsonl")); err != nil {
		t.Errorf("nested forest was not exported: %v", err)
	}
}
