package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
// extensible metrics map; version-1 summaries still load (ReadSummary
// normalizes their typed fields into the map).
const SummaryVersion = 2

// summaryFile is the per-run summary's filename inside the run directory.
const summaryFile = "summary.json"

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

	// Population is the total node count (bootstrap core included).
	Population int `json:"population"`
	// OnlineAvg is the mean ground-truth online population over the window.
	OnlineAvg float64 `json:"online_avg"`

	// Unified-trace counters (all monitors merged, Sec. IV-B flags).
	Entries       int            `json:"entries"`
	DedupEntries  int            `json:"dedup_entries"`
	Requests      int            `json:"requests"`
	DedupRequests int            `json:"dedup_requests"`
	RebroadShare  float64        `json:"rebroad_share"`
	UniquePeers   int            `json:"unique_peers"`
	UniqueCIDs    int            `json:"unique_cids"`
	PerType       map[string]int `json:"per_type,omitempty"`

	// MonitorCoverage is each monitor's Bitswap-active peer count divided
	// by the population (the paper's per-vantage-point coverage).
	MonitorCoverage map[string]float64 `json:"monitor_coverage,omitempty"`
	// PeerOverlap is |intersection| / |union| of Bitswap-active peer sets
	// across all monitors (the paper's overlap across vantage points).
	PeerOverlap float64 `json:"peer_overlap"`

	// GatewayShare is the share of deduplicated requests originating from
	// gateway nodes (the paper's gateway traffic share).
	GatewayShare float64 `json:"gateway_share"`
	// GatewayHitRate is the fleet-wide HTTP cache hit ratio.
	GatewayHitRate float64 `json:"gateway_hit_rate"`

	// Probe results (spec.Probes).
	GatewaysProbed     int `json:"gateways_probed,omitempty"`
	GatewaysIdentified int `json:"gateways_identified,omitempty"`

	// Replay-sourced runs (workload_source mode replay or fitted).
	//
	// ReplayEvents counts replayed want-list events; ReplayRequesters the
	// distinct observed (or generated) requesters mapped onto the pool.
	ReplayEvents     int `json:"replay_events,omitempty"`
	ReplayRequesters int `json:"replay_requesters,omitempty"`
	// FittedAlpha is the model's power-law exponent (fitted mode, when the
	// trace supports a fit) — compare across amplification factors to check
	// popularity-shape preservation.
	FittedAlpha float64 `json:"fitted_alpha,omitempty"`

	// Metrics is the extensible metrics-by-name view: every canonical
	// metric above plus "<report>:<metric>" entries contributed by the
	// spec's extra reports. The aggregation layer reads metrics from here
	// by name; adding a new comparison metric means registering a report,
	// not growing this struct.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// ElapsedMS is wall-clock time; it is excluded from aggregate CSVs
	// because it is not deterministic.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// ExecuteRun measures the run's world — synthetic or replayed, whichever
// the spec describes — with every monitor streaming into a per-monitor
// segment store under dir, and writes the run's summary.json, the same
// layout for both kinds so campaigns can mix and aggregate them. The
// returned summary is what the orchestrator aggregates later.
//
// Layout of dir after a completed run:
//
//	<dir>/mon-<name>.segments/   one segment store per monitor
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
	}

	// Every monitor streams the measured window into its durable store as
	// it happens. Seal whatever is open on every exit path (Close is
	// idempotent), so error returns do not leak file handles across a long
	// campaign.
	var stores []*ingest.SegmentStore
	defer func() { closeStores(stores) }()
	var monitors []*monitor.Monitor
	open := func(ms []*monitor.Monitor) (err error) {
		monitors = ms
		stores, err = openMonitorStores(dir, ms)
		return err
	}

	// opts carries the context extra reports may need.
	var opts report.Options
	if spec.ReplayMode() {
		meas, err := MeasureReplay(spec, run.Seed, func(w *replay.World) error {
			// Replay runs have no GeoIP ground truth or gateway fleets; an
			// extra report that needs them (table2, fig6) must fail here,
			// before the drive burns its compute, not at summary time.
			opts = report.Options{BootstrapIters: spec.BootstrapIters, Tracer: w.Tracer()}
			if err := report.NewDriver(true).AddByName(spec.Reports, opts); err != nil {
				return fmt.Errorf("sweep: summary reports for replay run %s: %w", run.ID, err)
			}
			return open(w.Monitors)
		})
		if err != nil {
			return nil, err
		}
		sum.Population = meas.World.PoolSize()
		sum.ReplayEvents = meas.Drive.Events
		sum.ReplayRequesters = meas.Drive.Requesters
		if meas.Model != nil && meas.Model.PowerLaw != nil {
			sum.FittedAlpha = meas.Model.PowerLaw.Alpha
		}
	} else {
		meas, err := Measure(spec, run.Seed, func(w *workload.World) error { return open(w.Monitors) })
		if err != nil {
			return nil, err
		}
		w := meas.World
		sum.Population = w.TotalPopulation()
		sum.OnlineAvg = meas.OnlineAvg
		if spec.Probes && len(w.Monitors) > 0 && len(w.Registry.All()) > 0 {
			probes := ProbeGateways(w)
			identified, _, _ := attacks.CrossReference(probes, w.Registry.NodeIDs())
			sum.GatewaysProbed = len(probes)
			sum.GatewaysIdentified = identified
		}
		var hits, misses uint64
		for _, g := range w.Gateways {
			st := g.Stats()
			hits += st.CacheHits
			misses += st.CacheMisses
		}
		if hits+misses > 0 {
			sum.GatewayHitRate = float64(hits) / float64(hits+misses)
		}
		opts = report.Options{
			Geo:            w.Geo,
			GatewayIDs:     w.GatewayNodeIDs(),
			MegagateIDs:    w.MegagateIDs(),
			BootstrapIters: spec.BootstrapIters,
			Tracer:         w.Tracer(),
		}
	}

	// Seal the stores before summarising; a run whose trace could not be
	// persisted is a failed run, not a silently partial one.
	if err := sealMonitorStores(monitors, stores); err != nil {
		return nil, err
	}
	if err := summarizeStores(sum, stores, spec.Reports, opts); err != nil {
		return nil, err
	}
	fillMonitorCoverage(sum, monitors, sum.Population)
	if err := writeRunTrace(dir, opts.Tracer); err != nil {
		return nil, err
	}
	sum.ElapsedMS = time.Since(start).Milliseconds()

	if err := writeSummary(filepath.Join(dir, summaryFile), sum); err != nil {
		return nil, err
	}
	return sum, nil
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

// openMonitorStores clears dir — a retried run must not append to a failed
// attempt's leftover segment stores — and redirects every monitor into a
// per-monitor segment store under it.
func openMonitorStores(dir string, monitors []*monitor.Monitor) ([]*ingest.SegmentStore, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("sweep: clear run dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: run dir: %w", err)
	}
	stores := make([]*ingest.SegmentStore, 0, len(monitors))
	for _, m := range monitors {
		store, err := ingest.OpenSegmentStore(monitorStoreDir(dir, m.Name), ingest.SegmentOptions{})
		if err != nil {
			closeStores(stores)
			return nil, err
		}
		stores = append(stores, store)
		m.SetSink(store)
	}
	return stores, nil
}

// closeStores is the defer-safe cleanup of openMonitorStores' result: Close
// is idempotent, so sealed stores are left as they are.
func closeStores(stores []*ingest.SegmentStore) {
	for _, store := range stores {
		store.Close()
	}
}

// sealMonitorStores closes every store and surfaces any sink error a
// monitor recorded during the run.
func sealMonitorStores(monitors []*monitor.Monitor, stores []*ingest.SegmentStore) error {
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
// extra reports the spec requests, whose metrics land in the summary's
// metrics map as "<report>:<metric>". opts carries the context extra reports
// may need (gateway IDs, GeoIP, bootstrap budget, tracer).
func summarizeStores(sum *RunSummary, stores []*ingest.SegmentStore, extraReports []string, opts report.Options) error {
	sources := make([]ingest.EntrySource, len(stores))
	for i, store := range stores {
		it, err := store.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			return err
		}
		defer it.Close()
		sources[i] = it
	}
	drv := report.NewDriver(true)
	if err := drv.AddByName(append([]string{"summary", "traffic"}, extraReports...), opts); err != nil {
		return fmt.Errorf("sweep: summary reports: %w", err)
	}
	if err := drv.Run(ingest.NewStreamUnifier(sources...)); err != nil {
		return fmt.Errorf("sweep: summarize run: %w", err)
	}
	results, err := drv.Finalize()
	if err != nil {
		return fmt.Errorf("sweep: summarize run: %w", err)
	}

	s := results.Get("summary").(*report.SummaryResult).Summary
	traffic := results.Get("traffic").(*report.Traffic)
	sum.Entries = s.Entries
	sum.Requests = s.Requests
	sum.UniquePeers = s.UniquePeers
	sum.UniqueCIDs = s.UniqueCIDs
	sum.DedupEntries = traffic.DedupEntries
	sum.DedupRequests = traffic.DedupRequests
	sum.RebroadShare = traffic.RebroadShare
	sum.GatewayShare = traffic.GatewayShare
	sum.PerType = make(map[string]int, len(s.PerType))
	for t, n := range s.PerType {
		sum.PerType[t.String()] = n
	}
	if len(extraReports) > 0 {
		if sum.Metrics == nil {
			sum.Metrics = make(map[string]float64)
		}
		for _, name := range extraReports {
			for k, v := range results.Get(name).Metrics() {
				sum.Metrics[name+":"+k] = v
			}
		}
	}
	return nil
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
		sum.PeerOverlap = float64(inAll) / float64(len(union))
	}
}

// writeSummary persists the summary atomically (temp file + rename), so a
// summary.json on disk is always complete: the manifest records a run as
// done only after this succeeds. The metrics map is completed first, so
// every persisted summary resolves every canonical metric by name.
func writeSummary(path string, sum *RunSummary) error {
	sum.normalize()
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
	// Version 1 (pre-metrics-map) summaries load through the same
	// metrics-by-name lookups: normalize derives the map from the typed
	// fields they carried.
	if sum.Version < 1 || sum.Version > SummaryVersion {
		return nil, fmt.Errorf("sweep: summary %s: version %d unsupported (want 1..%d)", path, sum.Version, SummaryVersion)
	}
	sum.normalize()
	return &sum, nil
}
