package sweep

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"bitswapmon/internal/attacks"
	"bitswapmon/internal/dht"
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
// aggregate them. A synthetic run crawls the DHT after the window (spec
// Crawl), then probes the gateways (spec Probes); the monitors keep
// streaming into their stores through both. The returned summary is what
// the orchestrator aggregates later.
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

	// opts carries the context extra reports may need. The bootstrap RNG
	// is derived from the engine when fig5 or popularity finalizes, after
	// the crawl and the probes have drawn theirs.
	var opts report.Options
	// panels are the report.txt sections that come from the world rather
	// than from the trace: the Sec. V-C panel, Fig. 3 and the probes.
	var panels []section
	if spec.ReplayMode() {
		meas, err := MeasureReplay(spec, run.Seed, func(w *replay.World) error {
			// Replay runs have no GeoIP ground truth or gateway fleets; an
			// extra report that needs them (table2, fig6) must fail here,
			// before the drive burns its compute, not at summary time.
			opts = report.Options{
				BootstrapIters: spec.BootstrapIters,
				Rand:           func() *rand.Rand { return w.Net.NewRand("fig5") },
				Tracer:         w.Tracer(),
			}
			if err := report.NewDriver(true).AddByName(spec.Reports, opts); err != nil {
				return fmt.Errorf("sweep: summary reports for replay run %s: %w", run.ID, err)
			}
			return open(w.Monitors)
		})
		if err != nil {
			return nil, err
		}
		m["population"] = float64(meas.World.PoolSize())
		m["replay_events"] = float64(meas.Drive.Events)
		m["replay_requesters"] = float64(meas.Drive.Requesters)
		if meas.Model != nil && meas.Model.PowerLaw != nil {
			m["fitted_alpha"] = meas.Model.PowerLaw.Alpha
		}
	} else {
		meas, err := Measure(spec, run.Seed, func(w *workload.World) error { return open(w.Monitors) })
		if err != nil {
			return nil, err
		}
		w := meas.World
		m["population"] = float64(w.TotalPopulation())
		m["online_avg"] = meas.OnlineAvg
		var crawl dht.CrawlResult
		if spec.Crawl {
			if crawl, err = Crawl(w); err != nil {
				return nil, err
			}
		}
		var probes []section
		if spec.Probes && len(w.Monitors) > 0 && len(w.Registry.All()) > 0 {
			probed := ProbeGateways(w)
			identified, found, correct := attacks.CrossReference(probed, w.Registry.NodeIDs())
			sum.GatewaysProbed = len(probed)
			sum.GatewaysIdentified = identified
			probes = []section{{"probes", fmt.Sprintf("Sec. VI-B: probed %d gateways, identified %d; discovered %d node IDs (%d correct)\n",
				len(probed), identified, found, correct)}}
		}
		if spec.Crawl {
			sec := ComputeSecVC(w.Monitors, meas.Samples, crawl, meas.OnlineAvg, w.TotalPopulation())
			fig3 := ComputeFig3(w.Monitors[0], 50)
			for k, v := range sec.Metrics() {
				m["secvc:"+k] = v
			}
			for k, v := range fig3.Metrics() {
				m["fig3:"+k] = v
			}
			panels = []section{{"secvc", sec.Render()}, {"fig3", fig3.Render()}}
		}
		panels = append(panels, probes...)
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

	// Seal the stores before summarising; a run whose trace could not be
	// persisted is a failed run, not a silently partial one.
	if err := SealMonitorStores(monitors, stores); err != nil {
		return nil, err
	}
	results, err := summarizeStores(sum, stores, spec.Reports, opts)
	if err != nil {
		return nil, err
	}
	fillMonitorCoverage(sum, monitors, int(m["population"]))
	if err := writeRunTrace(dir, opts.Tracer); err != nil {
		return nil, err
	}
	if err := writeReport(dir, results, panels); err != nil {
		return nil, err
	}
	sum.ElapsedMS = time.Since(start).Milliseconds()

	if err := writeSummary(filepath.Join(dir, summaryFile), sum); err != nil {
		return nil, err
	}
	return sum, nil
}

// section is one "==== <name> ====" block of report.txt.
type section struct{ name, text string }

// writeReport writes report.txt: the rendered result of every report of the
// summary pass, in order, then the panels, each under a "==== <name> ===="
// header — bsanalyze's multi-report layout.
func writeReport(dir string, results report.Results, panels []section) error {
	var sb strings.Builder
	for _, nr := range results {
		fmt.Fprintf(&sb, "==== %s ====\n%s\n", nr.Name, nr.Result.Render())
	}
	for _, p := range panels {
		fmt.Fprintf(&sb, "==== %s ====\n%s\n", p.name, p.text)
	}
	if err := os.WriteFile(filepath.Join(dir, reportFile), []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("sweep: write report: %w", err)
	}
	return nil
}

// ReportOptions is what a report over a synthetic world's trace may need:
// GeoIP, the gateway fleets, the bootstrap budget and RNG, and the tracer.
func (s ScenarioSpec) ReportOptions(w *workload.World) report.Options {
	return report.Options{
		Geo:            w.Geo,
		GatewayIDs:     w.GatewayNodeIDs(),
		MegagateIDs:    w.MegagateIDs(),
		BootstrapIters: s.BootstrapIters,
		Rand:           func() *rand.Rand { return w.Net.NewRand("fig5") },
		Tracer:         w.Tracer(),
	}
}

func monitorStoreDir(runDir, monName string) string {
	return filepath.Join(runDir, "mon-"+sanitize(monName)+".segments")
}

// writeRunTrace exports the run's sampled spans (Chrome trace-event JSON for
// Perfetto plus a JSONL sidecar) into the run directory. A nil tracer —
// tracing disabled — is a no-op.
func writeRunTrace(dir string, tr *otrace.Tracer) error {
	if tr == nil {
		return nil
	}
	if err := tr.WriteFiles(filepath.Join(dir, "trace.json")); err != nil {
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

// SealMonitorStores closes every store and surfaces any sink error a
// monitor recorded during the run.
func SealMonitorStores(monitors []*monitor.Monitor, stores []*ingest.SegmentStore) error {
	for i, m := range monitors {
		if err := stores[i].Close(); err != nil {
			return fmt.Errorf("sweep: seal store for monitor %s: %w", m.Name, err)
		}
		if err := m.SinkErr(); err != nil {
			return fmt.Errorf("sweep: monitor %s sink: %w", m.Name, err)
		}
	}
	return nil
}

// summarizeStores computes the unified-trace metrics with one streaming
// pass over a run's freshly written stores: a report.Driver tees the
// StreamUnifier's output through the summary and traffic reports (bounded
// memory: the unifier's window plus each report's own state), plus any
// extra reports the spec requests. Every result is read through its
// Metrics() map: the summary and traffic reports fill the canonical names
// they produce, and each extra report's metrics land as
// "<report>:<metric>". opts carries the context extra reports may need
// (gateway IDs, GeoIP, bootstrap budget, tracer).
func summarizeStores(sum *RunSummary, stores []*ingest.SegmentStore, extraReports []string, opts report.Options) (report.Results, error) {
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
func fillMonitorCoverage(sum *RunSummary, monitors []*monitor.Monitor, population int) {
	sum.MonitorCoverage = make(map[string]float64, len(monitors))
	union := make(map[simnet.NodeID]int)
	for _, m := range monitors {
		active := m.BitswapActivePeers()
		if population > 0 {
			sum.MonitorCoverage[m.Name] = float64(len(active)) / float64(population)
		}
		for id := range active {
			union[id]++
		}
	}
	if len(union) > 0 && len(monitors) > 1 {
		inAll := 0
		for _, n := range union {
			if n == len(monitors) {
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
