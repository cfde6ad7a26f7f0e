package sweep

import (
	"path/filepath"
	"reflect"
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
	sw := testSweep()
	sw.Axes = append(sw.Axes, Axis{Param: "hyperdrive", Values: []any{1.0}})
	if _, err := Expand(sw); err == nil {
		t.Error("unknown parameter accepted")
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
	s := ScenarioSpec{Version: SpecVersion, Window: D(time.Hour)}
	if err := applyParam(&s, "nodes", 42.5); err == nil {
		t.Error("fractional nodes accepted")
	}
	if err := applyParam(&s, "gateways", "yes"); err == nil {
		t.Error("string for bool accepted")
	}
	if err := applyParam(&s, "mean_session", "fast"); err == nil {
		t.Error("junk duration accepted")
	}
	if err := applyParam(&s, "gateways", false); err != nil {
		t.Errorf("gateways=false: %v", err)
	}
	if s.Gateways == nil || len(s.Gateways) != 0 {
		t.Error("gateways=false should disable the fleet")
	}
	if err := applyParam(&s, "window", "90m"); err != nil || s.Window.Std() != 90*time.Minute {
		t.Errorf("window override: %v %v", s.Window, err)
	}
	// Every row of the parameter table has a doc and a field of a type
	// applyParam coerces: a value of no JSON type is an error on each.
	for _, name := range KnownParams() {
		if ParamDoc(name) == "" {
			t.Errorf("parameter %s has no doc", name)
		}
		if err := applyParam(&s, name, struct{}{}); err == nil {
			t.Errorf("parameter %s accepted a struct{} value", name)
		}
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
		"replay-direct.json":  1,
		"replay-fitted.json":  1,
		"replay-record.json":  1,
		"servicemode.json":    1,
		"sizeestimation.json": 1,
		"streaming.json":      1,
		"sweep.json":          12,
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
