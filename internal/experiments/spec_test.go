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
