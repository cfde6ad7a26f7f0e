package sweep

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/monitor"
	"bitswapmon/internal/workload"
)

func testSweep() SweepSpec {
	base := ScenarioSpec{
		Version: SpecVersion,
		Window:  D(time.Hour),
		Config: workload.Config{Monitors: []monitor.Spec{
			{Name: "us", Region: "US"},
			{Name: "de", Region: "DE"},
		}},
	}
	return SweepSpec{
		Version: SpecVersion,
		Name:    "grid-test",
		Base:    base,
		Axes: []Axis{
			{Param: "nodes", Values: []any{40.0, 80.0, 120.0}},
			{Param: "mean_session", Values: []any{"2h", "6h"}},
		},
		Seeds: SeedPolicy{Base: 100, Replicates: 2},
	}
}

func TestExpandCounts(t *testing.T) {
	runs, err := Expand(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	// 3 nodes values × 2 sessions × 2 replicates.
	if len(runs) != 12 {
		t.Fatalf("expanded to %d runs, want 12", len(runs))
	}
	ids := make(map[string]bool)
	for _, r := range runs {
		if ids[r.ID] {
			t.Errorf("duplicate run ID %s", r.ID)
		}
		ids[r.ID] = true
		if r.Seed != 100 && r.Seed != 101 {
			t.Errorf("run %s has seed %d outside the policy", r.ID, r.Seed)
		}
		if r.Spec.Seed != r.Seed {
			t.Errorf("run %s: spec seed %d != run seed %d", r.ID, r.Spec.Seed, r.Seed)
		}
		if r.Spec.Nodes != 40 && r.Spec.Nodes != 80 && r.Spec.Nodes != 120 {
			t.Errorf("run %s: nodes override not applied (%d)", r.ID, r.Spec.Nodes)
		}
		if r.Spec.MeanSession.Std() != 2*time.Hour && r.Spec.MeanSession.Std() != 6*time.Hour {
			t.Errorf("run %s: session override not applied", r.ID)
		}
	}
}

func TestExpandDeterministicIDs(t *testing.T) {
	a, err := Expand(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same sweep differ")
	}
	// IDs are filesystem-safe and human-readable.
	for _, r := range a {
		if strings.ContainsAny(r.ID, "/\\ \t") {
			t.Errorf("run ID %q is not filesystem-safe", r.ID)
		}
		if !strings.Contains(r.ID, "nodes=") {
			t.Errorf("run ID %q does not name its parameters", r.ID)
		}
	}
}

func TestExpandCases(t *testing.T) {
	sw := testSweep()
	sw.Cases = []map[string]any{
		{"engine": "sharded", "shards": 2.0},
	}
	runs, err := Expand(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 14 { // 12 grid + 1 case × 2 replicates
		t.Fatalf("expanded to %d runs, want 14", len(runs))
	}
	found := 0
	for _, r := range runs {
		if r.Spec.Engine == "sharded" {
			found++
			if r.Spec.Shards != 2 {
				t.Errorf("case run %s: shards = %d, want 2", r.ID, r.Spec.Shards)
			}
			if r.Spec.Nodes != 0 {
				t.Errorf("case run %s inherited a grid axis override", r.ID)
			}
		}
	}
	if found != 2 {
		t.Errorf("found %d case runs, want 2", found)
	}
}

func TestExpandRejectsUnknownParam(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*SweepSpec)
		want string
	}{
		{"unknown axis", func(sw *SweepSpec) {
			sw.Axes = append(sw.Axes, Axis{Param: "hyperdrive", Values: []any{1.0}})
		}, `unknown field "hyperdrive"`},
		// Expand sets every run's seed from the seed policy, so a seed axis
		// or case would decode and then be overwritten.
		{"seed axis", func(sw *SweepSpec) {
			sw.Axes = append(sw.Axes, Axis{Param: "seed", Values: []any{7.0}})
		}, "seed policy"},
		{"seed case", func(sw *SweepSpec) {
			sw.Cases = []map[string]any{{"seed": 7.0}}
		}, "seed policy"},
	} {
		sw := testSweep()
		tc.edit(&sw)
		if _, err := Expand(sw); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestExpandRejectsInvalidPoint(t *testing.T) {
	sw := testSweep()
	sw.Axes = []Axis{{Param: "engine", Values: []any{"serial", "warp"}}}
	if _, err := Expand(sw); err == nil {
		t.Error("invalid engine value accepted")
	}
}

func TestExpandNoAxes(t *testing.T) {
	sw := testSweep()
	sw.Axes = nil
	sw.Seeds.Replicates = 3
	runs, err := Expand(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("axis-free sweep expanded to %d runs, want 3 replicates of base", len(runs))
	}
	if !strings.HasPrefix(runs[0].ID, "base-s") {
		t.Errorf("axis-free run ID = %q", runs[0].ID)
	}
}

func TestApplyParamCoercion(t *testing.T) {
	// A seed past float64's 53 bits must survive the base's own decode.
	base, err := json.Marshal(ScenarioSpec{Version: SpecVersion, Window: D(time.Hour), Seed: 1<<60 + 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key   string
		value any
		ok    bool
		check func(ScenarioSpec) bool
	}{
		{"nodes", 42.5, false, nil},
		{"nodes", 42.0, true, func(s ScenarioSpec) bool { return s.Nodes == 42 }},
		{"mean_session", "fast", false, nil},
		{"gateways", true, false, nil},
		{"gateways", nil, true, func(s ScenarioSpec) bool { return s.Gateways == nil }},
		{"gateways", []any{}, true, func(s ScenarioSpec) bool { return s.Gateways != nil && len(s.Gateways) == 0 }},
		{"hyperdrive", 1.0, false, nil},
		{"workload_source.warp", 2.0, false, nil},
		{"nodes.max", 2.0, false, nil},
		{"window", "90m", true, func(s ScenarioSpec) bool { return s.Window.Std() == 90*time.Minute }},
		// A spec file takes nanosecond numbers for durations, so a sweep does.
		{"window", 5400e9, true, func(s ScenarioSpec) bool { return s.Window.Std() == 90*time.Minute }},
		{"workload_source.amplify", 3.0, true, func(s ScenarioSpec) bool {
			return s.WorkloadSource != nil && s.WorkloadSource.Amplify == 3
		}},
	} {
		s, err := applyParams(base, []Param{{Key: tc.key, Value: tc.value}})
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s=%v: %v", tc.key, tc.value, err)
		case !tc.ok && err == nil:
			t.Errorf("%s=%v accepted", tc.key, tc.value)
		case tc.ok && (!tc.check(s) || s.Seed != 1<<60+1):
			t.Errorf("%s=%v decoded to %+v", tc.key, tc.value, s)
		}
	}
}

// TestSpecKeysDecode: every key bssweep params lists is one the override
// decoder knows, so an ill-typed value fails as a type error, never as an
// unknown field.
func TestSpecKeysDecode(t *testing.T) {
	base, err := json.Marshal(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	keys := SpecKeys()
	for _, want := range []string{"nodes", "monitors", "joint.both", "gateways", "trace_sample", "workload_source.time_warp", "shards"} {
		if !slices.Contains(keys, want) {
			t.Errorf("SpecKeys lacks %q: %v", want, keys)
		}
	}
	if slices.Contains(keys, "seed") {
		t.Error("SpecKeys lists seed, which the seed policy owns")
	}
	for _, key := range keys {
		_, err := applyParams(base, []Param{{Key: key, Value: []any{true}}})
		if err == nil || strings.Contains(err.Error(), "unknown field") {
			t.Errorf("key %s: err = %v, want a type error", key, err)
		}
	}
}

// TestExpandIsolatesRuns: no two runs share a slice or pointer with each
// other or with the base, and expansion leaves the base as it was.
func TestExpandIsolatesRuns(t *testing.T) {
	sw, err := ParseSweep([]byte(`{
  "version": 1,
  "base": {
    "version": 1,
    "monitors": [{"name": "us", "region": "US"}],
    "joint": {"both": 0.3, "only_a": 0.2, "only_b": 0.1},
    "reports": ["fig6"],
    "gateways": [{"name": "op", "nodes": 1, "requests_per_hour": 5, "hot_bias": 0.5, "functional": true}],
    "workload_source": {"mode": "fitted", "inputs": ["a.segments"]}
  },
  "axes": [
    {"param": "monitors", "values": [[{"name": "us", "region": "US"}], [{"name": "us", "region": "US"}, {"name": "de", "region": "DE"}]]},
    {"param": "joint", "values": [null, {"both": 0.5, "only_a": 0.1, "only_b": 0.1}]},
    {"param": "reports", "values": [["table1"], ["table1", "fig5"]]},
    {"param": "gateways", "values": [null, [], [{"name": "big", "nodes": 3, "requests_per_hour": 50, "hot_bias": 0.9, "functional": true}]]},
    {"param": "workload_source.time_warp", "values": [1, 4]}
  ],
  "seeds": {"base": 1, "replicates": 2}
}`))
	if err != nil {
		t.Fatal(err)
	}
	before, err := sw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := Expand(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*2*2*3*2*2 {
		t.Fatalf("expanded to %d runs", len(runs))
	}
	after, err := sw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("Expand changed the base:\n%s\nwant\n%s", after, before)
	}
	owner := make(map[uintptr]string)
	claim := func(who string, s ScenarioSpec) {
		refs := []any{s.Monitors, s.Reports, s.Gateways, s.Joint, s.WorkloadSource}
		if s.WorkloadSource != nil {
			refs = append(refs, s.WorkloadSource.Inputs)
		}
		for _, ref := range refs {
			v := reflect.ValueOf(ref)
			if v.Kind() == reflect.Slice && v.Len() == 0 || v.IsNil() {
				continue
			}
			if prev, ok := owner[v.Pointer()]; ok {
				t.Errorf("%s shares a %T with %s", who, ref, prev)
			}
			owner[v.Pointer()] = who
		}
	}
	claim("base", sw.Base)
	for _, r := range runs {
		claim(r.ID, r.Spec)
	}
	if got := runs[len(runs)-1].Spec.WorkloadSource; got.TimeWarp != 4 || got.Mode != "fitted" {
		t.Errorf("workload_source.time_warp override lost the base's keys: %+v", got)
	}
}

func TestSweepRoundTrip(t *testing.T) {
	sw := testSweep()
	sw.Cases = []map[string]any{{"engine": "sharded"}}
	blob, err := sw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSweep(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Expansion equality is the semantic round-trip check (raw DeepEqual
	// would trip over JSON's float64 for the axis values).
	a, err := Expand(sw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("sweep JSON round trip changed the expansion")
	}
	if _, err := ParseSweep([]byte(`{"version":1,"base":{"version":1,"window":"1h"},"axess":[]}`)); err == nil {
		t.Error("typoed sweep field accepted")
	}
}

// TestExampleSpecs: every walkthrough spec under examples/ loads and
// expands to the runs its README walkthrough expects, so a renamed spec key
// fails here and not only when the walkthroughs run. The daemon's spec also
// passes bsmon's start-up refusals (one run, no recorded workload).
func TestExampleSpecs(t *testing.T) {
	want := map[string]int{
		"popularity.json":     1,
		"replay-direct.json":  1,
		"replay-fitted.json":  1,
		"replay-record.json":  1,
		"servicemode.json":    1,
		"sizeestimation.json": 1,
		"streaming.json":      1,
		"sweep.json":          12,
		"tracing.json":        1,
	}
	paths, err := filepath.Glob("../../examples/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Errorf("examples/ holds %d specs %v, want %d", len(paths), paths, len(want))
	}
	for _, path := range paths {
		sw, err := LoadSweep(path)
		if err != nil {
			t.Error(err)
			continue
		}
		runs, err := Expand(sw)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		name := filepath.Base(path)
		if n, ok := want[name]; !ok || len(runs) != n {
			t.Errorf("%s expands to %d runs, want %d", path, len(runs), n)
		}
		if name == "servicemode.json" && (len(runs) != 1 || runs[0].Spec.ReplayMode()) {
			t.Errorf("%s: bsmon refuses a spec that is not one synthetic run", path)
		}
	}
}
