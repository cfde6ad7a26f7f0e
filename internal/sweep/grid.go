package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"bitswapmon/internal/replay"
	"bitswapmon/internal/workload"
)

// Axis is one swept parameter: the cartesian expander crosses every axis's
// values. Parameter names are the ScenarioSpec JSON field names (see
// KnownParams); values are JSON scalars coerced to the field's type.
type Axis struct {
	Param  string `json:"param"`
	Values []any  `json:"values"`
}

// SeedPolicy replicates every grid point across consecutive seeds, so each
// configuration's metrics carry replicate variance.
type SeedPolicy struct {
	// Base is the first replicate's seed.
	Base int64 `json:"base"`
	// Replicates is how many seeds each grid point runs under (default 1).
	Replicates int `json:"replicates,omitempty"`
}

// SweepSpec declares a whole family of runs: a base scenario, cartesian
// axes, explicit extra cases, and seed replication.
type SweepSpec struct {
	Version int          `json:"version"`
	Name    string       `json:"name,omitempty"`
	Base    ScenarioSpec `json:"base"`
	// Axes are crossed (cartesian product) in the listed order.
	Axes []Axis `json:"axes,omitempty"`
	// Cases are explicit extra parameter combinations appended after the
	// grid (each is one point, not crossed with the axes).
	Cases []map[string]any `json:"cases,omitempty"`
	Seeds SeedPolicy       `json:"seeds"`
}

// Validate checks the sweep's structure; per-run scenario validation
// happens during expansion, after overrides are applied.
func (sw SweepSpec) Validate() error {
	if sw.Version != SpecVersion {
		return fmt.Errorf("sweep: sweep version %d unsupported (want %d)", sw.Version, SpecVersion)
	}
	for _, ax := range sw.Axes {
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", ax.Param)
		}
	}
	if sw.Seeds.Replicates < 0 {
		return fmt.Errorf("sweep: negative seed replicates")
	}
	return nil
}

// Marshal renders the sweep as indented JSON.
func (sw SweepSpec) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(sw, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal sweep: %w", err)
	}
	return append(out, '\n'), nil
}

// ParseSweep decodes and validates a SweepSpec, rejecting unknown fields.
func ParseSweep(data []byte) (SweepSpec, error) {
	var sw SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		return sw, fmt.Errorf("sweep: parse sweep: %w", err)
	}
	if err := sw.Validate(); err != nil {
		return sw, err
	}
	return sw, nil
}

// LoadSweep reads a SweepSpec from a JSON file.
func LoadSweep(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, fmt.Errorf("sweep: read sweep: %w", err)
	}
	sw, err := ParseSweep(data)
	if err != nil {
		return sw, fmt.Errorf("%s: %w", path, err)
	}
	return sw, nil
}

// Param is one applied override, in axis order.
type Param struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Run is one fully expanded run: a concrete scenario, its seed, and a
// deterministic identity derived from the overridden parameters and seed.
type Run struct {
	// ID is filesystem-safe, human-readable and deterministic: the same
	// sweep expands to the same IDs on every invocation, which is what
	// makes the orchestrator's manifest resumable.
	ID     string
	Seed   int64
	Params []Param
	Spec   ScenarioSpec
}

// Expand produces every run of the sweep: the cartesian product of the
// axes plus the explicit cases, each replicated across the seed policy.
func Expand(sw SweepSpec) ([]Run, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	var points [][]Param
	points = append(points, nil) // the all-defaults point
	for _, ax := range sw.Axes {
		var next [][]Param
		for _, pt := range points {
			for _, v := range ax.Values {
				p := make([]Param, len(pt), len(pt)+1)
				copy(p, pt)
				next = append(next, append(p, Param{Key: ax.Param, Value: v}))
			}
		}
		points = next
	}
	for _, c := range sw.Cases {
		keys := make([]string, 0, len(c))
		for k := range c {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var pt []Param
		for _, k := range keys {
			pt = append(pt, Param{Key: k, Value: c[k]})
		}
		points = append(points, pt)
	}

	replicates := sw.Seeds.Replicates
	if replicates <= 0 {
		replicates = 1
	}
	var runs []Run
	seen := make(map[string]bool)
	for _, pt := range points {
		spec := sw.Base
		for _, p := range pt {
			if err := applyParam(&spec, p.Key, p.Value); err != nil {
				return nil, err
			}
		}
		for r := 0; r < replicates; r++ {
			seed := sw.Seeds.Base + int64(r)
			spec := spec
			spec.Seed = seed
			if err := spec.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: point %s: %w", pointLabel(pt), err)
			}
			id := runID(pt, seed)
			if seen[id] {
				return nil, fmt.Errorf("sweep: duplicate run %s (repeated case?)", id)
			}
			seen[id] = true
			runs = append(runs, Run{ID: id, Seed: seed, Params: pt, Spec: spec})
		}
	}
	return runs, nil
}

// FormatValue renders an override value the way run IDs and report axes
// spell it: deterministic and compact.
func FormatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case float64:
		if x == float64(int64(x)) {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	default:
		return fmt.Sprintf("%v", x)
	}
}

func pointLabel(pt []Param) string {
	if len(pt) == 0 {
		return "base"
	}
	parts := make([]string, len(pt))
	for i, p := range pt {
		parts[i] = p.Key + "=" + FormatValue(p.Value)
	}
	return strings.Join(parts, ",")
}

// runID derives the deterministic, filesystem-safe run identity.
func runID(pt []Param, seed int64) string {
	label := sanitize(pointLabel(pt))
	return fmt.Sprintf("%s-s%d", label, seed)
}

// sanitize keeps run IDs safe as directory names.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '=', r == ',', r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sweepParam is one sweepable parameter: its name (the ScenarioSpec JSON
// field name), its one-line description, and the spec field an override
// sets — a *int, *float64, *Duration, *bool or *string, whose type decides
// how the JSON value is coerced. gateways has no field: it switches between
// two values of a slice and applyParam spells that out.
type sweepParam struct {
	name, doc string
	field     func(*ScenarioSpec) any
}

var sweepParams = []sweepParam{
	{"nodes", "population size (int)", func(s *ScenarioSpec) any { return &s.Nodes }},
	{"client_frac", "DHT-client share (0..1)", func(s *ScenarioSpec) any { return &s.ClientFrac }},
	{"stable_frac", "never-churning share (0..1)", func(s *ScenarioSpec) any { return &s.StableFrac }},
	{"active_frac", "requesting share (0..1)", func(s *ScenarioSpec) any { return &s.ActiveFrac }},
	{"degree_target", "overlay connections per node (int)", func(s *ScenarioSpec) any { return &s.DegreeTarget }},
	{"bootstrap_servers", "stable core size (int)", func(s *ScenarioSpec) any { return &s.BootstrapServers }},
	{"mean_session", "mean online session (duration)", func(s *ScenarioSpec) any { return &s.MeanSession }},
	{"mean_offline", "mean offline gap (duration)", func(s *ScenarioSpec) any { return &s.MeanOffline }},
	{"mean_requests_per_hour", "per-active-node request rate (float)", func(s *ScenarioSpec) any { return &s.MeanRequestsPerHour }},
	{"catalog_items", "content population size (int)", func(s *ScenarioSpec) any { return &s.CatalogItems }},
	{"personal_frac", "personal-item request share (0..1)", func(s *ScenarioSpec) any { return &s.PersonalFrac }},
	{"personal_items_per_node", "personal set size (int)", func(s *ScenarioSpec) any { return &s.PersonalItemsPerNode }},
	{"global_hot_frac", "hot-head request share (0..1)", func(s *ScenarioSpec) any { return &s.GlobalHotFrac }},
	{"global_warm_frac", "warm-tier request share (0..1)", func(s *ScenarioSpec) any { return &s.GlobalWarmFrac }},
	{"warm_items", "warm tier size (int)", func(s *ScenarioSpec) any { return &s.WarmItems }},
	{"unresolved_cancel_after", "give-up time for unresolvable CIDs (duration)", func(s *ScenarioSpec) any { return &s.UnresolvedCancelAfter }},
	{"legacy_frac", "initial pre-v0.5 client share (0..1)", func(s *ScenarioSpec) any { return &s.LegacyFrac }},
	{"upgrade_after", "upgrade wave start offset (duration)", func(s *ScenarioSpec) any { return &s.UpgradeAfter }},
	{"upgrade_daily_frac", "daily upgrade probability (0..1)", func(s *ScenarioSpec) any { return &s.UpgradeDailyFrac }},
	{"monitor_prob", "independent per-monitor connectivity (0..1)", func(s *ScenarioSpec) any { return &s.MonitorProb }},
	{"xor_bias", "proximity-biased connectivity strength (float)", func(s *ScenarioSpec) any { return &s.XORBias }},
	{"time_warp", "replay time compression factor (float; workload_source runs)", func(s *ScenarioSpec) any { return &workloadSource(s).TimeWarp }},
	{"amplify", "fitted-replay population/volume multiplier (float)", func(s *ScenarioSpec) any { return &workloadSource(s).Amplify }},
	{"replay_nodes", "replay requester pool size (int; workload_source runs)", func(s *ScenarioSpec) any { return &workloadSource(s).Nodes }},
	{"monitor_frac", "fitted-replay per-monitor connectivity (0..1; 0 = full)", func(s *ScenarioSpec) any { return &workloadSource(s).MonitorFrac }},
	{"gateways", "gateway fleet on/off (bool)", nil},
	{"crawl", "DHT crawl with the Sec. V-C panel and Fig. 3 on/off (bool)", func(s *ScenarioSpec) any { return &s.Crawl }},
	{"probes", "gateway identification probe on/off (bool)", func(s *ScenarioSpec) any { return &s.Probes }},
	{"warmup", "warmup before measurement (duration)", func(s *ScenarioSpec) any { return &s.Warmup }},
	{"window", "measurement window (duration)", func(s *ScenarioSpec) any { return &s.Window }},
	{"sample_every", "sampler tick (duration)", func(s *ScenarioSpec) any { return &s.SampleEvery }},
	{"bootstrap_iters", "CSN bootstrap iterations (int)", func(s *ScenarioSpec) any { return &s.BootstrapIters }},
	{"engine", "simulation engine: serial or sharded (string)", func(s *ScenarioSpec) any { return &s.Engine }},
	{"shards", "sharded engine worker count (int)", func(s *ScenarioSpec) any { return &s.Shards }},
}

// KnownParams lists the sweepable parameter names, sorted.
func KnownParams() []string {
	out := make([]string, len(sweepParams))
	for i, p := range sweepParams {
		out[i] = p.name
	}
	sort.Strings(out)
	return out
}

// ParamDoc returns the one-line description of a sweepable parameter.
func ParamDoc(name string) string {
	for _, p := range sweepParams {
		if p.name == name {
			return p.doc
		}
	}
	return ""
}

// applyParam sets one override on the spec, coercing the JSON value to the
// field's type.
func applyParam(s *ScenarioSpec, key string, v any) error {
	if key == "gateways" {
		on, ok := v.(bool)
		if !ok {
			return coerceErr(key, v, "bool")
		}
		if on {
			s.Gateways = nil // workload defaults
		} else {
			s.Gateways = []workload.OperatorSpec{}
		}
		return nil
	}
	for _, p := range sweepParams {
		if p.name != key {
			continue
		}
		switch dst := p.field(s).(type) {
		case *int:
			return setInt(dst, key, v)
		case *float64:
			return setFloat(dst, key, v)
		case *Duration:
			return setDuration(dst, key, v)
		case *bool:
			on, ok := v.(bool)
			if !ok {
				return coerceErr(key, v, "bool")
			}
			*dst = on
		case *string:
			name, ok := v.(string)
			if !ok {
				return coerceErr(key, v, "string")
			}
			*dst = name
		default:
			panic(fmt.Sprintf("sweep: parameter %s: field type %T has no coercion", key, dst))
		}
		return nil
	}
	return fmt.Errorf("sweep: unknown sweep parameter %q (known: %s)", key, strings.Join(KnownParams(), ", "))
}

// workloadSource returns the spec's workload source for an override,
// cloning it first: grid expansion copies specs by value, so without the
// clone every grid point would share (and mutate) the base spec's struct.
func workloadSource(s *ScenarioSpec) *replay.Spec {
	if s.WorkloadSource == nil {
		s.WorkloadSource = &replay.Spec{}
	} else {
		clone := *s.WorkloadSource
		clone.Inputs = append([]string(nil), s.WorkloadSource.Inputs...)
		s.WorkloadSource = &clone
	}
	return s.WorkloadSource
}

func coerceErr(key string, v any, want string) error {
	return fmt.Errorf("sweep: parameter %s: cannot use %v (%T) as %s", key, v, v, want)
}

func setInt(dst *int, key string, v any) error {
	switch x := v.(type) {
	case float64:
		if x != float64(int(x)) {
			return coerceErr(key, v, "int")
		}
		*dst = int(x)
	case int:
		*dst = x
	default:
		return coerceErr(key, v, "int")
	}
	return nil
}

func setFloat(dst *float64, key string, v any) error {
	switch x := v.(type) {
	case float64:
		*dst = x
	case int:
		*dst = float64(x)
	default:
		return coerceErr(key, v, "float")
	}
	return nil
}

func setDuration(dst *Duration, key string, v any) error {
	switch x := v.(type) {
	case string:
		d, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("sweep: parameter %s: %w", key, err)
		}
		*dst = Duration(d)
	case float64:
		if x != float64(int64(x)) {
			return coerceErr(key, v, "duration")
		}
		*dst = Duration(int64(x))
	case time.Duration:
		*dst = Duration(x)
	default:
		return coerceErr(key, v, "duration (string like \"6h\")")
	}
	return nil
}
