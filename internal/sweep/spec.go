// Package sweep turns the single-run simulator into an experiment campaign
// system: declarative scenario specifications, the one runner every bounded
// run goes through (ExecuteRun, over Measure for a synthetic world — the
// week and the Fig. 4 upgrade scenario alike — or MeasureReplay for a
// replayed trace, with the post-window DHT crawl, Sec. V-C panel and
// gateway probes), the paper's scenarios as presets (DefaultSpec,
// WeekSpec, UpgradeSpec), grid/sweep expansion into families of runs with
// deterministic identities, a parallel orchestrator with a resumable
// on-disk manifest, and durable per-run results (segment stores, summary
// JSON, rendered report.txt) that the aggregation layer (ComputeTable,
// CSV) joins without re-reading raw traces.
//
// The paper's headline results — request popularity, gateway traffic
// shares, monitor overlap — all come from comparing many runs under varied
// populations, churn and monitor placements. A ScenarioSpec captures one
// such configuration flag-free; a SweepSpec varies it along axes.
package sweep

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"bitswapmon/internal/engine"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/workload"
)

// SpecVersion is the current ScenarioSpec/SweepSpec schema version. Loaders
// reject other versions so stored specs never silently change meaning.
const SpecVersion = 1

// Duration is the spec's duration type, shared with workload.Config: it
// marshals as a Go duration string ("6h30m").
type Duration = workload.Duration

// D converts a time.Duration for struct literals.
func D(d time.Duration) Duration { return Duration(d) }

// ScenarioSpec is the declarative, flag-free description of one simulation
// run: the world (population, churn, workload request mix, monitors and
// gateways), attack toggles, measurement window, engine choice and seed.
// Zero-valued fields take the workload package's documented defaults, so a
// spec states only what it varies. Specs marshal to versioned JSON and
// round-trip exactly; every run, one preset or a whole campaign, goes
// through this one scenario-assembly code path.
type ScenarioSpec struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`

	// Start is the simulation start time (RFC 3339; empty = simnet.Epoch).
	Start string `json:"start,omitempty"`

	// Config is the synthetic world: its fields are the spec's world keys,
	// nodes … gateways. WorkloadConfig fills its runtime fields.
	workload.Config

	// Attack toggles.
	//
	// Crawl runs one DHT crawl after the measurement window, before the
	// probes, and adds the Sec. V-C panel and Fig. 3 to the run's summary
	// ("secvc:<metric>", "fig3:<metric>") and report.txt. The run's stores
	// are sealed at the window's end, so they hold none of its traffic.
	Crawl bool `json:"crawl,omitempty"`
	// Probes runs the Sec. VI-B gateway identification probe after the
	// measurement window and the crawl; the stores hold none of its
	// traffic either.
	Probes bool `json:"probes,omitempty"`

	// WorkloadSource selects where the run's request workload comes from:
	// synthetic generation (nil, or mode "synthetic"), direct replay of a
	// recorded trace (mode "replay"), or a fitted replay that regenerates a
	// statistically matched, optionally amplified workload (mode "fitted").
	// Its keys are replay.Spec's; ReplaySpec fills the runtime fields.
	WorkloadSource *replay.Spec `json:"workload_source,omitempty"`

	// Reports names extra registered reports (internal/report) to run over
	// the unified trace when the run's summary is computed; each report's
	// metrics land in the summary's metrics map as "<report>:<metric>" and
	// become aggregatable by name like any canonical metric.
	Reports []string `json:"reports,omitempty"`

	// Trace enables the virtual-time causal flight recorder: sampled
	// requests carry spans across workload → gateway → DHT → Bitswap →
	// delivery, exportable as Perfetto JSON and summarized by the
	// latency_breakdown report. TraceSample is the deterministic
	// head-sampling rate (0 selects 1.0: every request). Sampling decisions
	// depend only on the run seed, so serial and sharded runs of the same
	// spec trace the same requests.
	Trace       bool    `json:"trace,omitempty"`
	TraceSample float64 `json:"trace_sample,omitempty"`

	// Measurement window.
	Warmup         Duration `json:"warmup,omitempty"`
	Window         Duration `json:"window"`
	SampleEvery    Duration `json:"sample_every,omitempty"`
	BootstrapIters int      `json:"bootstrap_iters,omitempty"`

	// Engine selection and seed policy. Shards applies to engine sharded
	// only (0 = the engine's default); replay and fitted runs take the
	// serial engine only. Seed is the run's base seed; sweep replication
	// overrides it per run.
	Engine string `json:"engine,omitempty"`
	Shards int    `json:"shards,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// DefaultSpec returns a small week-style scenario: the paper's two
// monitors, default operators, and a window sized for interactive runs. It
// crawls and probes after the window and runs the week's reports, so its
// report.txt holds every table, figure and panel of the week scenario.
func DefaultSpec() ScenarioSpec {
	return ScenarioSpec{
		Version: SpecVersion,
		Name:    "week-small",
		Config: workload.Config{
			Nodes:        250,
			CatalogItems: 3000,
			Monitors: []monitor.Spec{
				{Name: "us", Region: simnet.RegionUS},
				{Name: "de", Region: simnet.RegionDE},
			},
		},
		Warmup:         D(time.Hour),
		Window:         D(8 * time.Hour),
		SampleEvery:    D(30 * time.Minute),
		BootstrapIters: 30,
		Crawl:          true,
		Probes:         true,
		Reports:        []string{"table1", "table2", "fig5", "fig6"},
		Seed:           42,
	}
}

// WeekSpec is DefaultSpec at the documented reproduction scale: a full
// simulated week over 1200 nodes (minutes of wall time).
func WeekSpec() ScenarioSpec {
	s := DefaultSpec()
	s.Name = "week"
	s.Nodes = 1200
	s.CatalogItems = 10000
	s.Warmup = D(6 * time.Hour)
	s.Window = D(7 * 24 * time.Hour)
	s.SampleEvery = D(2 * time.Hour)
	s.BootstrapIters = 100
	return s
}

// UpgradeSpec returns the Fig. 4 scenario: a population starting almost
// entirely on the pre-v0.5 client (WANT_BLOCK broadcasts) that upgrades in
// a wave starting a third of the way into the observed weeks, seen by one
// monitor. There are no gateways (a cleaner series) and no warm-up: the
// figure starts at the simulation's first day. Fig. 4 buckets the raw
// request series by day, so it is computed over the run's store with
//
//	bsanalyze -dedup=false -bucket 24h -report fig4 <run>/mon-us.segments
func UpgradeSpec(nodes, weeks int) ScenarioSpec {
	window := time.Duration(weeks) * 7 * 24 * time.Hour
	return ScenarioSpec{
		Version: SpecVersion,
		Name:    "upgrade",
		Start:   "2020-03-15T00:00:00Z",
		Config: workload.Config{
			Nodes:            nodes,
			CatalogItems:     nodes,
			LegacyFrac:       0.95,
			UpgradeAfter:     D(window / 3),
			UpgradeDailyFrac: 0.18,
			Monitors:         []monitor.Spec{{Name: "us", Region: simnet.RegionUS}},
			Gateways:         []workload.OperatorSpec{},
		},
		Window: D(window),
		Seed:   42,
	}
}

// knownRegions guards against typos in spec files.
var knownRegions = map[simnet.Region]bool{
	simnet.RegionUS:    true,
	simnet.RegionNL:    true,
	simnet.RegionDE:    true,
	simnet.RegionCA:    true,
	simnet.RegionFR:    true,
	simnet.RegionOther: true,
}

// Validate checks the spec for structural errors. Zero-valued tunables are
// fine (they take workload defaults); what must hold is version, window,
// engine name and shard count (serial for replay), region names and
// fraction ranges.
func (s ScenarioSpec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("sweep: spec version %d unsupported (want %d)", s.Version, SpecVersion)
	}
	// Replay runs are driven to source exhaustion, so they need no window.
	if s.Window <= 0 && !s.ReplayMode() {
		return fmt.Errorf("sweep: spec needs a positive window")
	}
	if ws := s.WorkloadSource; ws != nil {
		switch ws.Mode {
		case "", "synthetic":
			if len(ws.Inputs) > 0 {
				return fmt.Errorf("sweep: workload_source inputs need mode replay or fitted")
			}
			if ws.TimeWarp > 0 || ws.Nodes > 0 || ws.MonitorFrac > 0 {
				return fmt.Errorf("sweep: workload_source replay knobs need mode replay or fitted")
			}
		case replay.ModeDirect, replay.ModeFitted:
			if len(ws.Inputs) == 0 {
				return fmt.Errorf("sweep: workload_source mode %q needs at least one input", ws.Mode)
			}
		default:
			return fmt.Errorf("sweep: unknown workload_source mode %q (want synthetic, replay or fitted)", ws.Mode)
		}
		if ws.TimeWarp < 0 {
			return fmt.Errorf("sweep: negative time_warp")
		}
		if ws.Amplify < 0 {
			return fmt.Errorf("sweep: negative amplify")
		}
		if ws.Amplify > 0 && ws.Mode != replay.ModeFitted {
			return fmt.Errorf("sweep: amplify requires workload_source mode fitted")
		}
		if ws.Nodes < 0 {
			return fmt.Errorf("sweep: negative replay_nodes")
		}
		if ws.MonitorFrac < 0 || ws.MonitorFrac > 1 {
			return fmt.Errorf("sweep: monitor_frac = %v out of [0,1]", ws.MonitorFrac)
		}
	}
	if s.Start != "" {
		if _, err := time.Parse(time.RFC3339, s.Start); err != nil {
			return fmt.Errorf("sweep: bad start time %q: %w", s.Start, err)
		}
	}
	known := report.Names()
	seenReports := make(map[string]bool, len(s.Reports))
	for _, name := range s.Reports {
		if !slices.Contains(known, name) {
			return fmt.Errorf("sweep: unknown report %q (available: %s)",
				name, strings.Join(known, ", "))
		}
		// The run summary always includes these; listing them again would
		// double the per-entry work and emit duplicate metric columns.
		if name == "summary" || name == "traffic" {
			return fmt.Errorf("sweep: report %q is always part of the run summary; list only extras", name)
		}
		if name == "latency_breakdown" && !s.Trace {
			return fmt.Errorf("sweep: report %q needs tracing enabled (set trace: true)", name)
		}
		if seenReports[name] {
			return fmt.Errorf("sweep: report %q listed twice", name)
		}
		seenReports[name] = true
	}
	switch s.Engine {
	case "", "serial", "sharded":
	default:
		return fmt.Errorf("sweep: unknown engine %q (want serial or sharded)", s.Engine)
	}
	// A shard count the engine would ignore or silently replace is a typo.
	if s.Shards < 0 {
		return fmt.Errorf("sweep: negative shards %d", s.Shards)
	}
	if s.Shards > 0 && s.Engine != "sharded" {
		return fmt.Errorf("sweep: shards = %d needs engine sharded", s.Shards)
	}
	if s.Engine == "sharded" && s.ReplayMode() {
		return fmt.Errorf("sweep: workload_source mode %q runs on the serial engine only: every replayed message goes to a monitor, and monitors run on shard 0", s.WorkloadSource.Mode)
	}
	// Fig. 3 is a snapshot of the first monitor's peers, and a replayed
	// world has no DHT to crawl.
	if s.Crawl && (s.ReplayMode() || len(s.Monitors) == 0) {
		return fmt.Errorf("sweep: crawl needs a synthetic run with at least one monitor")
	}
	if len(s.Monitors) > 64 {
		return fmt.Errorf("sweep: at most 64 monitors (have %d)", len(s.Monitors))
	}
	seen := make(map[string]bool, len(s.Monitors))
	for _, m := range s.Monitors {
		if m.Name == "" {
			return fmt.Errorf("sweep: monitor with empty name")
		}
		// Monitor names become per-run store directory names; restricting
		// them to filename-safe characters keeps two monitors from ever
		// sanitizing onto the same directory.
		for _, r := range m.Name {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '.' || r == '_' || r == '-') {
				return fmt.Errorf("sweep: monitor name %q: only letters, digits, '.', '_' and '-' are allowed", m.Name)
			}
		}
		if seen[m.Name] {
			return fmt.Errorf("sweep: duplicate monitor name %q", m.Name)
		}
		seen[m.Name] = true
		if !knownRegions[m.Region] {
			return fmt.Errorf("sweep: monitor %s: unknown region %q", m.Name, m.Region)
		}
	}
	for _, g := range s.Gateways {
		if g.Name == "" {
			return fmt.Errorf("sweep: gateway operator with empty name")
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"client_frac", s.ClientFrac}, {"stable_frac", s.StableFrac},
		{"active_frac", s.ActiveFrac}, {"personal_frac", s.PersonalFrac},
		{"global_hot_frac", s.GlobalHotFrac}, {"global_warm_frac", s.GlobalWarmFrac},
		{"legacy_frac", s.LegacyFrac}, {"upgrade_daily_frac", s.UpgradeDailyFrac},
		{"monitor_prob", s.MonitorProb},
		{"trace_sample", s.TraceSample},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("sweep: %s = %v out of [0,1]", f.name, f.v)
		}
	}
	// A negative count, duration or rate is a typo the world builder would
	// otherwise replace with its default (or, for upgrade_after, clamp).
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"nodes", float64(s.Nodes)}, {"degree_target", float64(s.DegreeTarget)},
		{"bootstrap_servers", float64(s.BootstrapServers)},
		{"mean_session", float64(s.MeanSession)}, {"mean_offline", float64(s.MeanOffline)},
		{"mean_requests_per_hour", s.MeanRequestsPerHour},
		{"catalog_items", float64(s.CatalogItems)},
		{"personal_items_per_node", float64(s.PersonalItemsPerNode)},
		{"warm_items", float64(s.WarmItems)},
		{"unresolved_cancel_after", float64(s.UnresolvedCancelAfter)},
		{"upgrade_after", float64(s.UpgradeAfter)}, {"xor_bias", s.XORBias},
		{"warmup", float64(s.Warmup)}, {"sample_every", float64(s.SampleEvery)},
		{"bootstrap_iters", float64(s.BootstrapIters)},
	} {
		if f.v < 0 {
			return fmt.Errorf("sweep: negative %s", f.name)
		}
	}
	if j := s.Joint; j != nil {
		if j.Both < 0 || j.OnlyA < 0 || j.OnlyB < 0 || j.Both+j.OnlyA+j.OnlyB > 1 {
			return fmt.Errorf("sweep: joint connectivity probabilities invalid")
		}
	}
	return nil
}

// ReplayMode reports whether the spec's workload replays a recorded trace
// (directly or fitted) instead of generating a synthetic scenario.
func (s ScenarioSpec) ReplayMode() bool {
	return s.WorkloadSource != nil &&
		(s.WorkloadSource.Mode == replay.ModeDirect || s.WorkloadSource.Mode == replay.ModeFitted)
}

// ReplaySpec assembles the replay execution spec this scenario describes,
// with seed overriding the spec's own base seed — the replay counterpart of
// WorkloadConfig. Monitors listed on the spec become the replay world's
// vantage points; an empty list lets replay.Prepare discover them from the
// inputs.
func (s ScenarioSpec) ReplaySpec(seed int64) (replay.Spec, error) {
	if err := s.Validate(); err != nil {
		return replay.Spec{}, err
	}
	if !s.ReplayMode() {
		return replay.Spec{}, fmt.Errorf("sweep: spec has no replay workload source")
	}
	rs := *s.WorkloadSource
	rs.Monitors = s.Monitors
	rs.Seed = seed
	rs.Start = s.start()
	return rs, nil
}

// start returns a validated spec's start time, zero when it names none.
func (s ScenarioSpec) start() time.Time {
	t, _ := time.Parse(time.RFC3339, s.Start) // validated; "" yields zero
	return t
}

// newTracer constructs the run's span recorder when the spec enables
// tracing, nil otherwise. Seeding the sampler from the run seed keeps the
// sampled request set identical across engines and across retries of the
// same run.
func (s ScenarioSpec) newTracer(seed int64) *otrace.Tracer {
	if !s.Trace {
		return nil
	}
	sample := s.TraceSample
	if sample <= 0 {
		sample = 1
	}
	return otrace.New(otrace.Config{Sample: sample, Seed: seed})
}

// newEngine returns the engine factory for a validated synthetic spec's
// engine selection (nil = serial simnet reference).
func (s ScenarioSpec) newEngine() func(start time.Time, seed int64) engine.Engine {
	if s.Engine == "sharded" {
		return engine.ShardedFactory(s.Shards)
	}
	return nil
}

// WorkloadConfig assembles the workload configuration this spec describes,
// with seed overriding the spec's own base seed. This is the single
// scenario-assembly code path of every synthetic run: the world is the
// spec's own Config, so zero fields stay zero and workload defaults apply.
func (s ScenarioSpec) WorkloadConfig(seed int64) (workload.Config, error) {
	if err := s.Validate(); err != nil {
		return workload.Config{}, err
	}
	cfg := s.Config
	cfg.Seed = seed
	cfg.Start = s.start()
	cfg.NewEngine = s.newEngine()
	return cfg, nil
}
