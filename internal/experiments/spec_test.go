package experiments

import (
	"testing"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/workload"
)

// TestCollectSpecDefaultsSampleEvery regresses a livelock: a spec that
// omits sample_every used to arm the online-population tracker with
// After(0), which re-enqueued itself at the same simulated instant and
// spun forever. The run must complete and still record online samples.
func TestCollectSpecDefaultsSampleEvery(t *testing.T) {
	spec := sweep.ScenarioSpec{
		Version:          sweep.SpecVersion,
		Nodes:            25,
		BootstrapServers: 6,
		CatalogItems:     100,
		Monitors: []sweep.MonitorSpec{
			{Name: "us", Region: "US"},
			{Name: "de", Region: "DE"},
		},
		Gateways: []sweep.OperatorSpec{},
		Warmup:   sweep.D(10 * time.Minute),
		Window:   sweep.D(2 * time.Hour),
		// SampleEvery deliberately omitted.
	}
	data, err := CollectSpec(spec, func(*workload.World) (ingest.Sink, error) {
		return ingest.NewMemorySink(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if data.OnlineAvg <= 0 {
		t.Errorf("OnlineAvg = %v, want positive (tracker should have ticked)", data.OnlineAvg)
	}
}

// TestScaleSpecRoundTrip checks that the flag path and the spec path
// assemble the same scenario parameters.
func TestScaleSpecRoundTrip(t *testing.T) {
	scale := SmallScale()
	scale.Engine = "sharded"
	scale.Shards = 2
	spec := scale.Spec(9)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.WorkloadConfig(spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.Nodes != scale.Nodes || cfg.Catalog.Items != scale.CatalogItems {
		t.Errorf("spec did not carry the scale's parameters: %+v", cfg)
	}
	if len(cfg.Monitors) != 2 {
		t.Errorf("week spec needs the paper's two monitors, got %d", len(cfg.Monitors))
	}
	if cfg.NewEngine == nil {
		t.Error("sharded scale produced no engine factory")
	}
	if spec.Window.Std() != scale.Window || spec.BootstrapIters != scale.BootstrapIters {
		t.Error("window fields not mapped")
	}
}
