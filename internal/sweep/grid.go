package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Axis is one swept parameter: the cartesian expander crosses every axis's
// values. Param is a spec key (see SpecKeys), and each value decodes as it
// would under that key in a spec file.
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
	base, err := json.Marshal(sw.Base)
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal base: %w", err)
	}
	var runs []Run
	seen := make(map[string]bool)
	for _, pt := range points {
		for r := 0; r < replicates; r++ {
			seed := sw.Seeds.Base + int64(r)
			spec, err := applyParams(base, pt)
			if err == nil {
				spec.Seed = seed
				err = spec.Validate()
			}
			if err != nil {
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
// spell it: deterministic and compact. Strings are bare, whole numbers
// have no fraction, and any other value is its compact JSON (true, null,
// [], objects with sorted keys).
func FormatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		if x == float64(int64(x)) {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	if b, err := json.Marshal(v); err == nil {
		return string(b)
	}
	return fmt.Sprintf("%v", v)
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

// seedKey is the one spec key an axis or case may not name: Expand sets the
// seed of every run from the sweep's seed policy.
const seedKey = "seed"

// applyParams decodes one run's spec: the base spec's JSON with each
// override set at its key, decoded as strictly as a spec file. A key is a
// spec key and a dot reaches into an object (workload_source.time_warp);
// a value replaces what the base holds there. The fresh decode gives every
// run its own slices and pointers.
func applyParams(base []byte, pt []Param) (ScenarioSpec, error) {
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(base))
	dec.UseNumber() // a large int64 seed would not decode back from a float64
	if err := dec.Decode(&doc); err != nil {
		return ScenarioSpec{}, err
	}
	for _, p := range pt {
		if p.Key == seedKey {
			return ScenarioSpec{}, fmt.Errorf("key %s is set by the seed policy (seeds.base, seeds.replicates)", seedKey)
		}
		obj, path := doc, strings.Split(p.Key, ".")
		for _, k := range path[:len(path)-1] {
			next, ok := obj[k].(map[string]any)
			if !ok { // a scalar here becomes an object, which then fails to decode
				next = map[string]any{}
				obj[k] = next
			}
			obj = next
		}
		obj[path[len(path)-1]] = p.Value
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		return ScenarioSpec{}, err
	}
	var spec ScenarioSpec
	dec = json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	err = dec.Decode(&spec)
	return spec, err
}

// SpecKeys lists the keys an axis or case can name, in the spec's key
// order: ScenarioSpec's JSON keys, the embedded workload.Config's
// included, and after a dot the keys of the objects they hold
// (workload_source.time_warp). What a key means is its field's doc comment.
func SpecKeys() []string {
	return jsonKeys(reflect.TypeOf(ScenarioSpec{}), "")
}

func jsonKeys(t reflect.Type, prefix string) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Anonymous && name == "" {
			keys = append(keys, jsonKeys(f.Type, prefix)...)
			continue
		}
		if !f.IsExported() || name == "-" || prefix+name == seedKey {
			continue
		}
		keys = append(keys, prefix+name)
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			keys = append(keys, jsonKeys(ft, prefix+name+".")...)
		}
	}
	return keys
}
