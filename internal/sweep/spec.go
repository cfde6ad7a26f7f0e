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
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"bitswapmon/internal/engine"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/workload"
)

// SpecVersion is the current ScenarioSpec/SweepSpec schema version. Loaders
// reject other versions so stored specs never silently change meaning.
const SpecVersion = 1

// Duration marshals as a Go duration string ("6h30m"), keeping specs
// human-editable; plain JSON numbers are accepted as nanoseconds.
type Duration time.Duration

// D converts a time.Duration for struct literals.
func D(d time.Duration) Duration { return Duration(d) }

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// MarshalJSON encodes the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "1h30m" strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("sweep: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("sweep: duration must be a string or nanoseconds: %s", data)
	}
	*d = Duration(n)
	return nil
}

// MonitorSpec declares one monitoring vantage point.
type MonitorSpec struct {
	Name   string `json:"name"`
	Region string `json:"region"`
}

// JointSpec is the 2-monitor joint connectivity model (see
// workload.JointConnectivity).
type JointSpec struct {
	Both  float64 `json:"both"`
	OnlyA float64 `json:"only_a"`
	OnlyB float64 `json:"only_b"`
}

// OperatorSpec declares one gateway operator fleet.
type OperatorSpec struct {
	Name            string   `json:"name"`
	Nodes           int      `json:"nodes"`
	RequestsPerHour float64  `json:"requests_per_hour"`
	HotBias         float64  `json:"hot_bias"`
	Functional      bool     `json:"functional"`
	CacheTTL        Duration `json:"cache_ttl,omitempty"`
}

// WorkloadSourceSpec selects where a run's request workload comes from:
// synthetic generation (the default), direct replay of a recorded trace, or
// a fitted replay that regenerates a statistically matched (and optionally
// amplified) workload from the trace's empirical models. Replay runs build
// an internal/replay world instead of a synthetic workload world; campaigns
// can sweep time_warp and amplify like any other parameter.
type WorkloadSourceSpec struct {
	// Mode is "synthetic", "replay" (direct) or "fitted".
	Mode string `json:"mode"`
	// Inputs are the recorded trace sources: segment-store directories,
	// flat binary traces, or CSV exports — one per recording monitor.
	Inputs []string `json:"inputs,omitempty"`
	// TimeWarp compresses (>1) or stretches (<1) replayed time.
	TimeWarp float64 `json:"time_warp,omitempty"`
	// Amplify scales the fitted population and request volume.
	Amplify float64 `json:"amplify,omitempty"`
	// ReplayNodes overrides the replay requester pool size.
	ReplayNodes int `json:"replay_nodes,omitempty"`
	// MonitorFrac is the fitted-mode probability that a replay node
	// connects to each monitor. Zero means unset and selects full
	// coverage (1), like every zero-valued spec field; use a small
	// positive value for near-zero coverage.
	MonitorFrac float64 `json:"monitor_frac,omitempty"`
}

// ScenarioSpec is the declarative, flag-free description of one simulation
// run: population, churn, workload request mix, monitors and gateways,
// attack toggles, measurement window, engine choice and seed. Zero-valued
// fields take the workload package's documented defaults, so a spec states
// only what it varies. Specs marshal to versioned JSON and round-trip
// exactly; every run, one preset or a whole campaign, goes through this one
// scenario-assembly code path.
type ScenarioSpec struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`

	// Start is the simulation start time (RFC 3339; empty = workload
	// default).
	Start string `json:"start,omitempty"`

	// Population.
	Nodes            int     `json:"nodes,omitempty"`
	ClientFrac       float64 `json:"client_frac,omitempty"`
	StableFrac       float64 `json:"stable_frac,omitempty"`
	ActiveFrac       float64 `json:"active_frac,omitempty"`
	DegreeTarget     int     `json:"degree_target,omitempty"`
	BootstrapServers int     `json:"bootstrap_servers,omitempty"`

	// Churn.
	MeanSession Duration `json:"mean_session,omitempty"`
	MeanOffline Duration `json:"mean_offline,omitempty"`

	// Workload: request mix and content population.
	MeanRequestsPerHour   float64  `json:"mean_requests_per_hour,omitempty"`
	CatalogItems          int      `json:"catalog_items,omitempty"`
	PersonalFrac          float64  `json:"personal_frac,omitempty"`
	PersonalItemsPerNode  int      `json:"personal_items_per_node,omitempty"`
	GlobalHotFrac         float64  `json:"global_hot_frac,omitempty"`
	GlobalWarmFrac        float64  `json:"global_warm_frac,omitempty"`
	WarmItems             int      `json:"warm_items,omitempty"`
	UnresolvedCancelAfter Duration `json:"unresolved_cancel_after,omitempty"`

	// Upgrade wave (Fig. 4 scenarios): initial legacy share and the wave.
	LegacyFrac       float64  `json:"legacy_frac,omitempty"`
	UpgradeAfter     Duration `json:"upgrade_after,omitempty"`
	UpgradeDailyFrac float64  `json:"upgrade_daily_frac,omitempty"`

	// Monitors and their connectivity model.
	Monitors    []MonitorSpec `json:"monitors,omitempty"`
	Joint       *JointSpec    `json:"joint,omitempty"`
	MonitorProb float64       `json:"monitor_prob,omitempty"`
	// XORBias is the estimator-bias ablation (proximity-biased monitor
	// connectivity); 0 = unbiased.
	XORBias float64 `json:"xor_bias,omitempty"`

	// Gateways: nil selects workload.DefaultOperators, an explicit empty
	// list disables gateways. No omitempty: JSON must preserve the
	// nil-vs-empty distinction (null vs []) or a spec would silently grow
	// the default fleet when written and reloaded (e.g. across a sweep
	// resume).
	Gateways []OperatorSpec `json:"gateways"`

	// Attack toggles.
	//
	// Crawl runs one DHT crawl after the measurement window, before the
	// probes, and adds the Sec. V-C panel and Fig. 3 to the run's summary
	// ("secvc:<metric>", "fig3:<metric>") and report.txt.
	Crawl bool `json:"crawl,omitempty"`
	// Probes runs the Sec. VI-B gateway identification probe after the
	// measurement window.
	Probes bool `json:"probes,omitempty"`

	// WorkloadSource selects synthetic generation (nil or mode
	// "synthetic") or trace replay for this run's request workload.
	WorkloadSource *WorkloadSourceSpec `json:"workload_source,omitempty"`

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
	// only (0 = the engine's default). Seed is the run's base seed; sweep
	// replication overrides it per run.
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
		Nodes:   250,
		Monitors: []MonitorSpec{
			{Name: "us", Region: string(simnet.RegionUS)},
			{Name: "de", Region: string(simnet.RegionDE)},
		},
		CatalogItems:   3000,
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
		Version:          SpecVersion,
		Name:             "upgrade",
		Start:            "2020-03-15T00:00:00Z",
		Nodes:            nodes,
		CatalogItems:     nodes,
		Monitors:         []MonitorSpec{{Name: "us", Region: string(simnet.RegionUS)}},
		Gateways:         []OperatorSpec{},
		LegacyFrac:       0.95,
		UpgradeAfter:     D(window / 3),
		UpgradeDailyFrac: 0.18,
		Window:           D(window),
		Seed:             42,
	}
}

// knownRegions guards against typos in spec files.
var knownRegions = map[string]bool{
	string(simnet.RegionUS):    true,
	string(simnet.RegionNL):    true,
	string(simnet.RegionDE):    true,
	string(simnet.RegionCA):    true,
	string(simnet.RegionFR):    true,
	string(simnet.RegionOther): true,
}

// Validate checks the spec for structural errors. Zero-valued tunables are
// fine (they take workload defaults); what must hold is version, window,
// engine name and shard count, region names and fraction ranges.
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
			if ws.TimeWarp > 0 || ws.ReplayNodes > 0 || ws.MonitorFrac > 0 {
				return fmt.Errorf("sweep: workload_source replay knobs need mode replay or fitted")
			}
		case "replay", "fitted":
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
		if ws.Amplify > 0 && ws.Mode != "fitted" {
			return fmt.Errorf("sweep: amplify requires workload_source mode fitted")
		}
		if ws.ReplayNodes < 0 {
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
	seenReports := make(map[string]bool, len(s.Reports))
	for _, name := range s.Reports {
		if !report.Default.Has(name) {
			return fmt.Errorf("sweep: unknown report %q (available: %s)",
				name, strings.Join(report.Names(), ", "))
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
		(s.WorkloadSource.Mode == "replay" || s.WorkloadSource.Mode == "fitted")
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
	ws := s.WorkloadSource
	rs := replay.Spec{
		Mode:        replay.ModeDirect,
		Inputs:      ws.Inputs,
		TimeWarp:    ws.TimeWarp,
		Amplify:     ws.Amplify,
		Nodes:       ws.ReplayNodes,
		MonitorFrac: ws.MonitorFrac,
		Seed:        seed,
		NewEngine:   s.newEngine(),
		Tracer:      s.NewTracer(seed),
	}
	if ws.Mode == "fitted" {
		rs.Mode = replay.ModeFitted
	}
	if s.Start != "" {
		rs.Start, _ = time.Parse(time.RFC3339, s.Start) // validated above
	}
	for _, m := range s.Monitors {
		rs.Monitors = append(rs.Monitors, replay.MonitorSpec{
			Name:   m.Name,
			Region: simnet.Region(m.Region),
		})
	}
	return rs, nil
}

// NewTracer constructs the run's span recorder when the spec enables
// tracing, nil otherwise. Seeding the sampler from the run seed keeps the
// sampled request set identical across engines and across retries of the
// same run.
func (s ScenarioSpec) NewTracer(seed int64) *otrace.Tracer {
	if !s.Trace {
		return nil
	}
	sample := s.TraceSample
	if sample <= 0 {
		sample = 1
	}
	return otrace.New(otrace.Config{Sample: sample, Seed: seed})
}

// newEngine returns the engine factory for a validated spec's engine
// selection (nil = serial simnet reference).
func (s ScenarioSpec) newEngine() func(start time.Time, seed int64) engine.Engine {
	if s.Engine == "sharded" {
		return engine.ShardedFactory(s.Shards)
	}
	return nil
}

// WorkloadConfig assembles the workload configuration this spec describes,
// with seed overriding the spec's own base seed. This is the single
// scenario-assembly code path of every synthetic run: zero spec fields stay
// zero so workload defaults apply.
func (s ScenarioSpec) WorkloadConfig(seed int64) (workload.Config, error) {
	if err := s.Validate(); err != nil {
		return workload.Config{}, err
	}
	cfg := workload.Config{
		Seed:                  seed,
		Nodes:                 s.Nodes,
		ClientFrac:            s.ClientFrac,
		StableFrac:            s.StableFrac,
		ActiveFrac:            s.ActiveFrac,
		MeanRequestsPerHour:   s.MeanRequestsPerHour,
		DegreeTarget:          s.DegreeTarget,
		MeanSession:           s.MeanSession.Std(),
		MeanOffline:           s.MeanOffline.Std(),
		Catalog:               workload.CatalogConfig{Items: s.CatalogItems},
		MonitorProb:           s.MonitorProb,
		XORBias:               s.XORBias,
		UnresolvedCancelAfter: s.UnresolvedCancelAfter.Std(),
		LegacyFrac:            s.LegacyFrac,
		UpgradeDailyFrac:      s.UpgradeDailyFrac,
		BootstrapServers:      s.BootstrapServers,
		NewEngine:             s.newEngine(),
		PersonalFrac:          s.PersonalFrac,
		PersonalItemsPerNode:  s.PersonalItemsPerNode,
		GlobalHotFrac:         s.GlobalHotFrac,
		GlobalWarmFrac:        s.GlobalWarmFrac,
		WarmItems:             s.WarmItems,
		Tracer:                s.NewTracer(seed),
	}
	if s.Start != "" {
		cfg.Start, _ = time.Parse(time.RFC3339, s.Start) // validated above
	}
	if s.UpgradeAfter > 0 {
		start := cfg.Start
		if start.IsZero() {
			// Mirror workload.Config.withDefaults so the offset is
			// anchored to the same instant the world will start at.
			start = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
		}
		cfg.UpgradeStart = start.Add(s.UpgradeAfter.Std())
	}
	for _, m := range s.Monitors {
		cfg.Monitors = append(cfg.Monitors, workload.MonitorSpec{
			Name:   m.Name,
			Region: simnet.Region(m.Region),
		})
	}
	if s.Joint != nil {
		cfg.Joint = workload.JointConnectivity{Both: s.Joint.Both, OnlyA: s.Joint.OnlyA, OnlyB: s.Joint.OnlyB}
	}
	if s.Gateways != nil {
		cfg.Operators = []workload.OperatorSpec{}
		for _, g := range s.Gateways {
			cfg.Operators = append(cfg.Operators, workload.OperatorSpec{
				Name:            g.Name,
				Nodes:           g.Nodes,
				RequestsPerHour: g.RequestsPerHour,
				HotBias:         g.HotBias,
				Functional:      g.Functional,
				CacheTTL:        g.CacheTTL.Std(),
			})
		}
	}
	return cfg, nil
}

// Marshal renders the spec as indented, human-editable JSON.
func (s ScenarioSpec) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal spec: %w", err)
	}
	return append(out, '\n'), nil
}

// ParseSpec decodes and validates a ScenarioSpec. Unknown fields are
// rejected: a typoed knob must fail loudly, not silently fall back to a
// default.
func ParseSpec(data []byte) (ScenarioSpec, error) {
	var s ScenarioSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("sweep: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// LoadSpec reads a ScenarioSpec from a JSON file.
func LoadSpec(path string) (ScenarioSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("sweep: read spec: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
