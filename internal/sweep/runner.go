package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"bitswapmon/internal/attacks"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/workload"
)

// SummaryVersion versions the per-run summary schema. Version 2 added the
// extensible metrics map beside the typed metric fields of version 1;
// version 3 holds each metric once, in the map. Every version loads
// (ReadSummary migrates a version-1 file's top-level metrics into the map).
const SummaryVersion = 3

// summaryFile and reportFile are the per-run summary's and rendered
// reports' filenames inside the run directory.
const (
	summaryFile = "summary.json"
	reportFile  = "report.txt"
)

// RunSummary is the durable per-run result: every cross-run comparison
// metric, computed once when the run finishes and persisted next to the
// run's segment stores. The aggregation layer joins these JSON files —
// never the raw traces. All fields except ElapsedMS are deterministic for
// a given spec and seed under the serial engine.
type RunSummary struct {
	Version int     `json:"version"`
	RunID   string  `json:"run_id"`
	Seed    int64   `json:"seed"`
	Params  []Param `json:"params,omitempty"`
	Engine  string  `json:"engine,omitempty"`

	// PerType counts unified-trace entries by message type.
	PerType map[string]int `json:"per_type,omitempty"`
	// MonitorCoverage is each monitor's Bitswap-active peer count divided
	// by the population (the paper's per-vantage-point coverage).
	MonitorCoverage map[string]float64 `json:"monitor_coverage,omitempty"`

	// Probe results (spec.Probes).
	GatewaysProbed     int `json:"gateways_probed,omitempty"`
	GatewaysIdentified int `json:"gateways_identified,omitempty"`

	// Metrics holds every comparison metric by name, each once: the
	// canonical set (KnownMetrics, documented in metrics.go) plus
	// "<report>:<metric>" entries contributed by the spec's extra reports.
	// Adding a comparison metric means registering a report, not growing
	// this struct.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// ElapsedMS is wall-clock time; it is excluded from aggregate CSVs
	// because it is not deterministic.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// ExecuteRun measures the run's world — synthetic or replayed, whichever
// the spec describes — with every monitor streaming into a per-monitor
// segment store under dir, and writes the run's summary.json and
// report.txt, the same layout for both kinds so campaigns can mix and
// aggregate them. The stores are sealed, and the monitors detached from
// them, when the window ends; a synthetic run then crawls the DHT (spec
// Crawl) and probes the gateways (spec Probes), so the stores hold the
// window and nothing after it. The returned summary is what the
// orchestrator aggregates later.
//
// Layout of dir after a completed run:
//
//	<dir>/mon-<name>.segments/   one segment store per monitor
//	<dir>/report.txt             every report's rendered text
//	<dir>/summary.json           the RunSummary
func ExecuteRun(dir string, run Run) (*RunSummary, error) {
	start := time.Now()
	spec := run.Spec
	sum := &RunSummary{
		Version: SummaryVersion,
		RunID:   run.ID,
		Seed:    run.Seed,
		Params:  run.Params,
		Engine:  spec.Engine,
		Metrics: canonicalZeros(),
	}
	m := sum.Metrics

	// Every monitor streams the measured window into its durable store as
	// it happens. Seal whatever is open on every exit path (Close is
	// idempotent), so error returns do not leak file handles across a long
	// campaign.
	var stores []*ingest.SegmentStore
	defer func() { closeStores(stores) }()
	var monitors []*monitor.Monitor
	open := func(ms []*monitor.Monitor) (err error) {
		// A retried run must not append to a failed attempt's leftovers.
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("sweep: clear run dir: %w", err)
		}
		monitors = ms
		stores, err = OpenMonitorStores(dir, ms, ingest.SegmentOptions{}, nil)
		return err
	}

	// opts carries the context extra reports may need.
	var opts report.Options
	// meas is a synthetic run's measurement, nil for a replay.
	var meas *Measurement
	if spec.ReplayMode() {
		rm, err := MeasureReplay(spec, run.Seed, func(w *replay.World) error {
			// Replay runs have no GeoIP ground truth or gateway fleets; an
			// extra report that needs them (table2, fig6) must fail here,
			// before the drive burns its compute, not at summary time.
			opts = report.Options{
				BootstrapIters: spec.BootstrapIters,
				Tracer:         w.Net.Tracer(),
			}
			if err := report.NewDriver(true).AddByName(spec.Reports, opts); err != nil {
				return fmt.Errorf("sweep: summary reports for replay run %s: %w", run.ID, err)
			}
			return open(w.Monitors)
		})
		if err != nil {
			return nil, err
		}
		m["population"] = float64(rm.World.PoolSize())
		m["replay_events"] = float64(rm.Drive.Events)
		m["replay_requesters"] = float64(rm.Drive.Requesters)
		if rm.Model != nil && rm.Model.PowerLaw != nil {
			m["fitted_alpha"] = rm.Model.PowerLaw.Alpha
		}
	} else {
		var err error
		if meas, err = Measure(spec, run.Seed, func(w *workload.World) error { return open(w.Monitors) }); err != nil {
			return nil, err
		}
		w := meas.World
		m["population"] = float64(w.TotalPopulation())
		m["online_avg"] = meas.OnlineAvg
		var hits, misses uint64
		for _, g := range w.Gateways {
			st := g.Stats()
			hits += st.CacheHits
			misses += st.CacheMisses
		}
		if hits+misses > 0 {
			m["gateway_hit_rate"] = float64(hits) / float64(hits+misses)
		}
		opts = spec.ReportOptions(w)
	}

	// The window ends here. Seal the stores, detaching the monitors from
	// them, and read the monitors' peer sets before the crawl and the
	// probes run more simulated time. A run whose trace could not be
	// persisted is a failed run, not a silently partial one.
	if err := SealMonitorStores(monitors, stores); err != nil {
		return nil, err
	}
	peers := make([]monitor.PeerSets, len(monitors))
	for i, mon := range monitors {
		peers[i] = mon.Peers()
	}
	fillMonitorCoverage(sum, peers, int(m["population"]))
	// panels are the results that come from the world rather than from the
	// trace: the Sec. V-C panel and Fig. 3 (spec Crawl; the Fig. 3 snapshot
	// is taken before the crawl) and the probe line (spec Probes).
	var panels report.Results
	if meas != nil {
		w := meas.World
		if spec.Crawl {
			fig3 := ComputeFig3(w.Monitors[0], 50)
			crawl, err := Crawl(w)
			if err != nil {
				return nil, err
			}
			panels = report.Results{
				{Name: "secvc", Result: ComputeSecVC(peers, meas.Samples, crawl, meas.OnlineAvg, w.TotalPopulation())},
				{Name: "fig3", Result: fig3},
			}
		}
		if spec.Probes && len(w.Monitors) > 0 && len(w.Registry.All()) > 0 {
			probed := ProbeGateways(w)
			identified, found, correct := attacks.CrossReference(probed, w.Registry.NodeIDs())
			sum.GatewaysProbed, sum.GatewaysIdentified = len(probed), identified
			panels = append(panels, report.NamedResult{Name: "probes", Result: probeLine(fmt.Sprintf(
				"Sec. VI-B: probed %d gateways, identified %d; discovered %d node IDs (%d correct)\n", len(probed), identified, found, correct))})
		}
	}
	results, err := summarizeStores(sum, stores, spec.Reports, opts, panels)
	if err != nil {
		return nil, err
	}
	if err := writeRunTrace(dir, opts.Tracer); err != nil {
		return nil, err
	}
	if err := writeReport(dir, results); err != nil {
		return nil, err
	}
	sum.ElapsedMS = time.Since(start).Milliseconds()

	if err := writeSummary(filepath.Join(dir, summaryFile), sum); err != nil {
		return nil, err
	}
	return sum, nil
}

// probeLine is the Sec. VI-B line of a run that probed the gateways. Its
// counts are the summary's gateway probe fields, so it has no metrics.
type probeLine string

func (p probeLine) Render() string            { return string(p) }
func (probeLine) Metrics() map[string]float64 { return nil }

// writeReport writes report.txt: every result of the run in order, each
// under a "==== <name> ====" header — bsanalyze's multi-report layout.
func writeReport(dir string, results report.Results) error {
	var sb strings.Builder
	for _, nr := range results {
		fmt.Fprintf(&sb, "==== %s ====\n%s\n", nr.Name, nr.Result.Render())
	}
	if err := os.WriteFile(filepath.Join(dir, reportFile), []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("sweep: write report: %w", err)
	}
	return nil
}

// ReportOptions is what a report over a synthetic world's trace may need:
// GeoIP, the gateway fleets, the bootstrap budget and the tracer.
func (s ScenarioSpec) ReportOptions(w *workload.World) report.Options {
	return report.Options{
		Geo:            w.Geo,
		GatewayIDs:     w.GatewayNodeIDs(),
		MegagateIDs:    w.MegagateIDs(),
		BootstrapIters: s.BootstrapIters,
		Tracer:         w.Net.Tracer(),
	}
}

func monitorStoreDir(runDir, monName string) string {
	return filepath.Join(runDir, "mon-"+sanitize(monName)+".segments")
}

// writeRunTrace exports the run's sampled spans (Chrome trace-event JSON for
// Perfetto plus a JSONL sidecar) into the run directory. A span forest in
// which a synchronous span leaves its parent's time bounds fails the run
// instead. A nil tracer — tracing disabled — is a no-op.
func writeRunTrace(dir string, tr *otrace.Tracer) error {
	if tr == nil {
		return nil
	}
	spans := tr.Spans()
	for _, tree := range otrace.BuildTrees(spans) {
		if err := tree.CheckNesting(); err != nil {
			return fmt.Errorf("sweep: span forest: %w", err)
		}
	}
	if err := otrace.WriteFiles(filepath.Join(dir, "trace.json"), spans); err != nil {
		return fmt.Errorf("sweep: write trace: %w", err)
	}
	return nil
}

// OpenMonitorStores points every monitor at a fresh segment store,
// dir/mon-<name>.segments, teed into tee if not nil. Virtual time restarts
// every run, so a store already holding entries or unsealed files is refused.
func OpenMonitorStores(dir string, monitors []*monitor.Monitor, opts ingest.SegmentOptions, tee ingest.Sink) ([]*ingest.SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: store dir: %w", err)
	}
	stores := make([]*ingest.SegmentStore, 0, len(monitors))
	for _, m := range monitors {
		path := monitorStoreDir(dir, m.Name)
		store, err := ingest.OpenSegmentStore(path, opts)
		if err == nil {
			stores = append(stores, store)
			if tot := store.Totals(); tot.Entries > 0 || len(store.Skipped()) > 0 {
				err = fmt.Errorf("sweep: segment store %s already holds data from a previous run (%d sealed entries, %d unsealed files)",
					path, tot.Entries, len(store.Skipped()))
			}
		}
		if err != nil {
			closeStores(stores)
			return nil, err
		}
		if tee != nil {
			m.SetSink(ingest.Tee(store, tee))
		} else {
			m.SetSink(store)
		}
	}
	return stores, nil
}

// closeStores is the defer-safe cleanup of OpenMonitorStores' result: Close
// is idempotent, so sealed stores are left as they are.
func closeStores(stores []*ingest.SegmentStore) {
	for _, store := range stores {
		store.Close()
	}
}

// SealMonitorStores detaches every monitor from its store, so it records
// nothing more, closes the store and surfaces any sink error the monitor
// recorded during the run.
func SealMonitorStores(monitors []*monitor.Monitor, stores []*ingest.SegmentStore) error {
	for i, m := range monitors {
		sinkErr := m.SinkErr()
		m.SetSink(nil)
		if err := stores[i].Close(); err != nil {
			return fmt.Errorf("sweep: seal store for monitor %s: %w", m.Name, err)
		}
		if sinkErr != nil {
			return fmt.Errorf("sweep: monitor %s sink: %w", m.Name, sinkErr)
		}
	}
	return nil
}

// summarizeStores computes the unified-trace metrics with one streaming
// pass over a run's freshly written stores: a report.Driver tees the
// StreamUnifier's output through the summary and traffic reports (bounded
// memory: the unifier's window plus each report's own state), plus any
// extra reports the spec requests. It returns the pass's results followed
// by panels, and reads every one through its Metrics() map: the summary and
// traffic reports fill the canonical names they produce, and every other
// result's metrics land as "<name>:<metric>". opts carries the context
// extra reports may need (gateway IDs, GeoIP, bootstrap budget, tracer).
func summarizeStores(sum *RunSummary, stores []*ingest.SegmentStore, extraReports []string, opts report.Options, panels report.Results) (report.Results, error) {
	sources := make([]ingest.EntrySource, len(stores))
	for i, store := range stores {
		it, err := store.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		sources[i] = it
	}
	builtin := []string{"summary", "traffic"}
	drv := report.NewDriver(true)
	if err := drv.AddByName(append(builtin, extraReports...), opts); err != nil {
		return nil, fmt.Errorf("sweep: summary reports: %w", err)
	}
	if err := drv.Run(ingest.NewStreamUnifier(sources...)); err != nil {
		return nil, fmt.Errorf("sweep: summarize run: %w", err)
	}
	results, err := drv.Finalize()
	if err != nil {
		return nil, fmt.Errorf("sweep: summarize run: %w", err)
	}

	results = append(results, panels...)
	for i, nr := range results {
		for k, v := range nr.Result.Metrics() {
			switch {
			case i >= len(builtin):
				sum.Metrics[nr.Name+":"+k] = v
			case slices.Contains(canonicalMetrics, k):
				sum.Metrics[k] = v
			}
		}
	}
	s := results.Get("summary").(*report.SummaryResult).Summary
	sum.PerType = make(map[string]int, len(s.PerType))
	for t, n := range s.PerType {
		sum.PerType[t.String()] = n
	}
	return results, nil
}

// fillMonitorCoverage derives coverage and overlap from the monitors'
// Bitswap-active peer sets against the given population size.
func fillMonitorCoverage(sum *RunSummary, peers []monitor.PeerSets, population int) {
	sum.MonitorCoverage = make(map[string]float64, len(peers))
	union := make(map[simnet.NodeID]int)
	for _, p := range peers {
		if population > 0 {
			sum.MonitorCoverage[p.Monitor] = float64(len(p.Active)) / float64(population)
		}
		for id := range p.Active {
			union[id]++
		}
	}
	if len(union) > 0 && len(peers) > 1 {
		inAll := 0
		for _, n := range union {
			if n == len(peers) {
				inAll++
			}
		}
		sum.Metrics["peer_overlap"] = float64(inAll) / float64(len(union))
	}
}

// writeSummary persists the summary atomically (temp file + rename), so a
// summary.json on disk is always complete: the manifest records a run as
// done only after this succeeds.
func writeSummary(path string, sum *RunSummary) error {
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: marshal summary: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("sweep: write summary: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sweep: commit summary: %w", err)
	}
	return nil
}

// ReadSummary loads one run's summary.json.
func ReadSummary(path string) (*RunSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: read summary: %w", err)
	}
	var sum RunSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		return nil, fmt.Errorf("sweep: decode summary %s: %w", path, err)
	}
	if sum.Version < 1 || sum.Version > SummaryVersion {
		return nil, fmt.Errorf("sweep: summary %s: version %d unsupported (want 1..%d)", path, sum.Version, SummaryVersion)
	}
	if sum.Version == 1 {
		// Version 1 had no metrics map: it carried the canonical metrics as
		// top-level keys, which load through the same lookups once copied
		// into the map (a key it lacks reads as 0, the structural zero a
		// later version writes).
		var top map[string]any
		if err := json.Unmarshal(data, &top); err != nil {
			return nil, fmt.Errorf("sweep: decode summary %s: %w", path, err)
		}
		sum.Metrics = canonicalZeros()
		for _, name := range canonicalMetrics {
			if v, ok := top[name].(float64); ok {
				sum.Metrics[name] = v
			}
		}
	}
	return &sum, nil
}
