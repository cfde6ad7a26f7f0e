package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// fullSpec exercises every field, so the round-trip test cannot pass by
// accident of zero values.
func fullSpec() ScenarioSpec {
	return ScenarioSpec{
		Version:               SpecVersion,
		Name:                  "everything",
		Start:                 "2021-04-30T00:00:00Z",
		Nodes:                 321,
		ClientFrac:            0.4,
		StableFrac:            0.25,
		ActiveFrac:            0.5,
		DegreeTarget:          14,
		BootstrapServers:      9,
		MeanSession:           D(5 * time.Hour),
		MeanOffline:           D(11 * time.Hour),
		MeanRequestsPerHour:   3.5,
		CatalogItems:          1234,
		PersonalFrac:          0.8,
		PersonalItemsPerNode:  6,
		GlobalHotFrac:         0.4,
		GlobalWarmFrac:        0.6,
		WarmItems:             55,
		UnresolvedCancelAfter: D(4 * time.Minute),
		LegacyFrac:            0.9,
		UpgradeAfter:          D(48 * time.Hour),
		UpgradeDailyFrac:      0.15,
		Monitors: []MonitorSpec{
			{Name: "us", Region: "US"},
			{Name: "de", Region: "DE"},
			{Name: "fr", Region: "FR"},
		},
		Joint:          &JointSpec{Both: 0.3, OnlyA: 0.2, OnlyB: 0.1},
		MonitorProb:    0.45,
		XORBias:        1.5,
		Gateways:       []OperatorSpec{{Name: "op", Nodes: 2, RequestsPerHour: 10, HotBias: 0.9, Functional: true, CacheTTL: D(time.Hour)}},
		Crawl:          true,
		Probes:         true,
		Warmup:         D(30 * time.Minute),
		Window:         D(3 * time.Hour),
		SampleEvery:    D(20 * time.Minute),
		BootstrapIters: 40,
		Engine:         "sharded",
		Shards:         3,
		Seed:           7,
	}
}

func TestSpecRoundTrip(t *testing.T) {
	want := fullSpec()
	blob, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip changed the spec:\nwant %+v\ngot  %+v", want, got)
	}

	// And again through a file, like a spec bssweep preset printed.
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got2) {
		t.Error("file round trip changed the spec")
	}

	// Marshal is stable: same spec, same bytes.
	blob2, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Error("marshalling the reloaded spec produced different bytes")
	}
}

// TestSpecGatewaysNilVsEmptyRoundTrip pins the semantic distinction
// between "no gateways field" (default fleet) and "gateways: []" (none):
// losing it across marshal/load would silently change a resumed sweep's
// scenario.
func TestSpecGatewaysNilVsEmptyRoundTrip(t *testing.T) {
	for _, gw := range [][]OperatorSpec{nil, {}} {
		s := ScenarioSpec{Version: SpecVersion, Window: D(time.Hour), Gateways: gw}
		blob, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseSpec(blob)
		if err != nil {
			t.Fatal(err)
		}
		if (got.Gateways == nil) != (gw == nil) {
			t.Errorf("gateways %#v round-tripped to %#v", gw, got.Gateways)
		}
	}
}

func TestSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"version":1,"window":"1h","nodess":5}`)); err == nil {
		t.Error("typoed field accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ScenarioSpec)
	}{
		{"bad version", func(s *ScenarioSpec) { s.Version = 99 }},
		{"no window", func(s *ScenarioSpec) { s.Window = 0 }},
		{"bad engine", func(s *ScenarioSpec) { s.Engine = "warp" }},
		{"bad region", func(s *ScenarioSpec) { s.Monitors[0].Region = "ZZ" }},
		{"dup monitor", func(s *ScenarioSpec) { s.Monitors[1].Name = "us" }},
		{"unsafe monitor name", func(s *ScenarioSpec) { s.Monitors[0].Name = "us/1" }},
		{"bad frac", func(s *ScenarioSpec) { s.ActiveFrac = 1.5 }},
		{"bad joint", func(s *ScenarioSpec) { s.Joint = &JointSpec{Both: 0.9, OnlyA: 0.9} }},
		{"bad start", func(s *ScenarioSpec) { s.Start = "yesterday" }},
		{"unnamed gateway", func(s *ScenarioSpec) { s.Gateways[0].Name = "" }},
		{"negative shards", func(s *ScenarioSpec) { s.Shards = -1 }},
		{"shards on serial", func(s *ScenarioSpec) { s.Engine = "serial" }},
		{"shards on default engine", func(s *ScenarioSpec) { s.Engine = "" }},
		{"crawl without monitors", func(s *ScenarioSpec) { s.Monitors = nil }},
		{"crawl on replay", func(s *ScenarioSpec) {
			s.WorkloadSource = &WorkloadSourceSpec{Mode: "replay", Inputs: []string{"us.segments"}}
		}},
	}
	for _, tc := range cases {
		s := fullSpec()
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := fullSpec().Validate(); err != nil {
		t.Errorf("full spec rejected: %v", err)
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Errorf("default spec rejected: %v", err)
	}
}

func TestWorkloadConfigMapping(t *testing.T) {
	s := fullSpec()
	s.Engine, s.Shards = "", 0 // serial: factory must be nil
	cfg, err := s.WorkloadConfig(99)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 99 {
		t.Errorf("Seed = %d, want the override 99", cfg.Seed)
	}
	if cfg.Nodes != s.Nodes || cfg.ActiveFrac != s.ActiveFrac || cfg.ClientFrac != s.ClientFrac {
		t.Errorf("population fields not mapped")
	}
	if cfg.Catalog.Items != s.CatalogItems {
		t.Errorf("Catalog.Items = %d, want %d", cfg.Catalog.Items, s.CatalogItems)
	}
	if cfg.MeanSession != 5*time.Hour || cfg.MeanOffline != 11*time.Hour {
		t.Errorf("churn durations not mapped")
	}
	if len(cfg.Monitors) != 3 || cfg.Monitors[2].Name != "fr" {
		t.Errorf("monitors not mapped: %+v", cfg.Monitors)
	}
	if cfg.Joint.Both != 0.3 {
		t.Errorf("joint not mapped")
	}
	if len(cfg.Operators) != 1 || cfg.Operators[0].CacheTTL != time.Hour {
		t.Errorf("operators not mapped: %+v", cfg.Operators)
	}
	if cfg.NewEngine != nil {
		t.Errorf("serial spec produced an engine factory")
	}
	wantUpgrade := time.Date(2021, 5, 2, 0, 0, 0, 0, time.UTC)
	if !cfg.UpgradeStart.Equal(wantUpgrade) {
		t.Errorf("UpgradeStart = %v, want %v", cfg.UpgradeStart, wantUpgrade)
	}

	// A zero-ish spec leaves workload defaults alone.
	minimal := ScenarioSpec{Version: SpecVersion, Window: D(time.Hour)}
	cfg, err = minimal.WorkloadConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 0 || cfg.Operators != nil || cfg.Monitors != nil {
		t.Errorf("minimal spec set non-zero workload fields: %+v", cfg)
	}

	// Explicitly empty gateways disable the default fleet.
	noGw := minimal
	noGw.Gateways = []OperatorSpec{}
	cfg, err = noGw.WorkloadConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Operators == nil || len(cfg.Operators) != 0 {
		t.Errorf("empty gateways should map to empty non-nil operators, got %#v", cfg.Operators)
	}

	// Sharded selection produces a factory.
	sh := minimal
	sh.Engine = "sharded"
	cfg, err = sh.WorkloadConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NewEngine == nil {
		t.Error("sharded spec produced no engine factory")
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"90m"`)); err != nil || d.Std() != 90*time.Minute {
		t.Errorf("string duration: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`3600000000000`)); err != nil || d.Std() != time.Hour {
		t.Errorf("numeric duration: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`"soon"`)); err == nil {
		t.Error("bad duration accepted")
	}
}
