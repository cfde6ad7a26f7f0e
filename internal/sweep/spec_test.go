package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/monitor"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/workload"
)

// fullSpec exercises every field, so the round-trip test cannot pass by
// accident of zero values.
func fullSpec() ScenarioSpec {
	return ScenarioSpec{
		Version: SpecVersion,
		Name:    "everything",
		Start:   "2021-04-30T00:00:00Z",
		Config: workload.Config{
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
			Monitors: []monitor.Spec{
				{Name: "us", Region: "US"},
				{Name: "de", Region: "DE"},
				{Name: "fr", Region: "FR"},
			},
			Joint:       &workload.JointConnectivity{Both: 0.3, OnlyA: 0.2, OnlyB: 0.1},
			MonitorProb: 0.45,
			XORBias:     1.5,
			Gateways:    []workload.OperatorSpec{{Name: "op", Nodes: 2, RequestsPerHour: 10, HotBias: 0.9, Functional: true, CacheTTL: D(time.Hour)}},
		},
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

// parseSpec loads a spec the way bssweep and bsmon do, as the base of a
// one-run sweep, and validates it as Expand validates every run.
func parseSpec(blob []byte) (ScenarioSpec, error) {
	sw, err := ParseSweep(fmt.Appendf(nil, `{"version": %d, "base": %s}`, SpecVersion, blob))
	if err != nil {
		return ScenarioSpec{}, err
	}
	return sw.Base, sw.Base.Validate()
}

// Marshal renders the spec as indented JSON, the way SweepSpec.Marshal
// renders a whole sweep.
func (s ScenarioSpec) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal spec: %w", err)
	}
	return append(out, '\n'), nil
}

func TestSpecRoundTrip(t *testing.T) {
	want := fullSpec()
	blob, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseSpec(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip changed the spec:\nwant %+v\ngot  %+v", want, got)
	}

	// And again through a file, like a spec bssweep preset printed.
	swBlob, err := SweepSpec{Version: SpecVersion, Base: want}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, swBlob, 0o644); err != nil {
		t.Fatal(err)
	}
	sw, err := LoadSweep(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, sw.Base) {
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
	for _, gw := range [][]workload.OperatorSpec{nil, {}} {
		s := ScenarioSpec{Version: SpecVersion, Window: D(time.Hour), Config: workload.Config{Gateways: gw}}
		blob, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseSpec(blob)
		if err != nil {
			t.Fatal(err)
		}
		if (got.Gateways == nil) != (gw == nil) {
			t.Errorf("gateways %#v round-tripped to %#v", gw, got.Gateways)
		}
	}
}

func TestSpecRejectsUnknownFields(t *testing.T) {
	if _, err := parseSpec([]byte(`{"version":1,"window":"1h","nodess":5}`)); err == nil {
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
		{"bad joint", func(s *ScenarioSpec) { s.Joint = &workload.JointConnectivity{Both: 0.9, OnlyA: 0.9} }},
		{"bad start", func(s *ScenarioSpec) { s.Start = "yesterday" }},
		{"unnamed gateway", func(s *ScenarioSpec) { s.Gateways[0].Name = "" }},
		{"negative shards", func(s *ScenarioSpec) { s.Shards = -1 }},
		{"shards on serial", func(s *ScenarioSpec) { s.Engine = "serial" }},
		{"shards on default engine", func(s *ScenarioSpec) { s.Engine = "" }},
		{"crawl without monitors", func(s *ScenarioSpec) { s.Monitors = nil }},
		{"crawl on replay", func(s *ScenarioSpec) {
			s.WorkloadSource = &replay.Spec{Mode: replay.ModeDirect, Inputs: []string{"us.segments"}}
		}},
		{"negative nodes", func(s *ScenarioSpec) { s.Nodes = -5 }},
		{"negative degree_target", func(s *ScenarioSpec) { s.DegreeTarget = -1 }},
		{"negative bootstrap_servers", func(s *ScenarioSpec) { s.BootstrapServers = -1 }},
		{"negative mean_session", func(s *ScenarioSpec) { s.MeanSession = D(-time.Hour) }},
		{"negative mean_offline", func(s *ScenarioSpec) { s.MeanOffline = D(-time.Hour) }},
		{"negative mean_requests_per_hour", func(s *ScenarioSpec) { s.MeanRequestsPerHour = -2 }},
		{"negative catalog_items", func(s *ScenarioSpec) { s.CatalogItems = -1 }},
		{"negative personal_items_per_node", func(s *ScenarioSpec) { s.PersonalItemsPerNode = -1 }},
		{"negative warm_items", func(s *ScenarioSpec) { s.WarmItems = -1 }},
		{"negative unresolved_cancel_after", func(s *ScenarioSpec) { s.UnresolvedCancelAfter = D(-time.Minute) }},
		{"negative upgrade_after", func(s *ScenarioSpec) { s.UpgradeAfter = D(-time.Hour) }},
		{"negative xor_bias", func(s *ScenarioSpec) { s.XORBias = -0.5 }},
		{"negative warmup", func(s *ScenarioSpec) { s.Warmup = D(-time.Minute) }},
		{"negative sample_every", func(s *ScenarioSpec) { s.SampleEvery = D(-time.Minute) }},
		{"negative bootstrap_iters", func(s *ScenarioSpec) { s.BootstrapIters = -1 }},
	}
	for _, tc := range cases {
		s := fullSpec()
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Replay runs on the serial engine only, and the refusal says why.
	for _, mode := range []replay.Mode{replay.ModeDirect, replay.ModeFitted} {
		s := fullSpec()
		s.Crawl = false
		s.WorkloadSource = &replay.Spec{Mode: mode, Inputs: []string{"us.segments"}}
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), "monitors run on shard 0") {
			t.Errorf("sharded %s replay: err = %v, want the shard-0 refusal", mode, err)
		}
		s.Engine, s.Shards = "serial", 0
		if err := s.Validate(); err != nil {
			t.Errorf("serial %s replay rejected: %v", mode, err)
		}
		// A sweep point is refused the same way.
		sw := SweepSpec{Version: SpecVersion, Name: "replay", Base: s,
			Cases: []map[string]any{{"engine": "sharded", "shards": 2.0}}}
		if _, err := Expand(sw); err == nil || !strings.Contains(err.Error(), "monitors run on shard 0") {
			t.Errorf("sharded %s replay sweep point: err = %v, want the shard-0 refusal", mode, err)
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
	if !cfg.Start.Equal(simnet.Epoch) {
		t.Errorf("Start = %v, want %v", cfg.Start, simnet.Epoch)
	}
	if cfg.NewEngine != nil || s.newTracer(99) != nil {
		t.Errorf("serial untraced spec produced an engine factory or a tracer")
	}
	// Every world field is the spec's own.
	cfg.Seed, cfg.Start = 0, time.Time{}
	if !reflect.DeepEqual(cfg, s.Config) {
		t.Errorf("world changed on the way to the workload:\ngot  %+v\nwant %+v", cfg, s.Config)
	}

	// A zero-ish spec leaves workload defaults alone.
	minimal := ScenarioSpec{Version: SpecVersion, Window: D(time.Hour)}
	cfg, err = minimal.WorkloadConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Start.IsZero() || cfg.Nodes != 0 || cfg.Gateways != nil || cfg.Monitors != nil {
		t.Errorf("minimal spec set non-zero workload fields: %+v", cfg)
	}

	// Sharded selection produces a factory, tracing a tracer.
	sh := minimal
	sh.Engine, sh.Trace = "sharded", true
	cfg, err = sh.WorkloadConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NewEngine == nil || sh.newTracer(1) == nil {
		t.Error("sharded traced spec produced no engine factory or no tracer")
	}
}

// TestSpecJSONPinned holds the bytes a sweep root pins in sweep.json: a root
// resumes only while its spec marshals to the bytes it was written with, so
// a renamed, reordered or newly omitted key would strand every existing
// root. The hashes were taken before ScenarioSpec embedded workload.Config
// and replay.Spec; the presets are wrapped as bssweep preset prints them.
func TestSpecJSONPinned(t *testing.T) {
	preset := func(s ScenarioSpec) func() ([]byte, error) {
		return SweepSpec{Version: SpecVersion, Name: s.Name, Base: s, Seeds: SeedPolicy{Base: s.Seed}}.Marshal
	}
	fitted := ScenarioSpec{
		Version: SpecVersion,
		Name:    "fitted",
		Engine:  "sharded",
		Shards:  2,
		WorkloadSource: &replay.Spec{
			Mode: replay.ModeFitted, Inputs: []string{"us.segments", "de.trace"},
			TimeWarp: 8, Amplify: 10, Nodes: 64, MonitorFrac: 0.5,
		},
	}
	for _, tc := range []struct {
		name    string
		marshal func() ([]byte, error)
		want    string
	}{
		{"full", fullSpec().Marshal, "092ad4c7ff822d9bc20e0bf91bf6ccdd68615063262ca42c37b62852d015c17b"},
		{"small", preset(DefaultSpec()), "699fdc35028856e5e3a031a5f6c5fb3b505186a2db7d2808b45340b6b5253343"},
		{"week", preset(WeekSpec()), "5e7edf6e0992b88c91d5f85778247bd3a402f72bccb1c9c912d4509c0080017b"},
		{"upgrade", preset(UpgradeSpec(150, 3)), "3c041e1d0d15a05a99f9d5225c822da6531efee547df2114b0bd8e2709b45d2d"},
		{"fitted", fitted.Marshal, "41a1b50aaf716f2a6733bd6f2b16021dedc822077e5a297cd20e2c2ad8e8db4f"},
	} {
		blob, err := tc.marshal()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: spec JSON sha256 = %s, want %s; bytes:\n%s", tc.name, got, tc.want, blob)
		}
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
