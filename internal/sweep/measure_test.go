package sweep

import (
	"testing"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/workload"
)

// TestMeasureDefaultsSampleEvery: a spec that omits sample_every gets one
// 30 m tick for both the peer sampler and the online tracker. ExecuteRun used
// to arm the sampler at monitor.NewSampler's 1 h default and the tracker at
// 30 m, while the week path used 30 m for both.
func TestMeasureDefaultsSampleEvery(t *testing.T) {
	spec := tinySweep().Base
	spec.SampleEvery = 0
	spec.Window = D(2 * time.Hour)
	meas, err := Measure(spec, 42, func(*workload.World) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := int(spec.Window.Std() / (30 * time.Minute)); len(meas.Samples) != want {
		t.Errorf("%d samples over a %v window, want %d (one per 30m)", len(meas.Samples), spec.Window.Std(), want)
	}
	if meas.OnlineAvg <= 0 {
		t.Errorf("OnlineAvg = %v, want positive (tracker should have ticked)", meas.OnlineAvg)
	}
}

// TestRunStoresHoldOnlyTheWindow: a run that crawls and probes after its
// window seals its stores at the window's end, so no entry of the crawl or
// the probes (the probes' own requests included) reaches them.
func TestRunStoresHoldOnlyTheWindow(t *testing.T) {
	run := pinnedRun()
	run.Spec.Crawl = true
	dir := t.TempDir()
	sum, err := ExecuteRun(dir, run)
	if err != nil {
		t.Fatal(err)
	}
	if sum.GatewaysProbed == 0 || sum.Metrics["secvc:crawl_seen"] == 0 {
		t.Fatalf("run probed %d gateways and crawled %v peers, want both", sum.GatewaysProbed, sum.Metrics["secvc:crawl_seen"])
	}
	end := simnet.Epoch.Add(run.Spec.Warmup.Std() + run.Spec.Window.Std())
	for _, mon := range run.Spec.Monitors {
		store, err := ingest.OpenSegmentStore(monitorStoreDir(dir, mon.Name), ingest.SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tot := store.Totals()
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if tot.Entries == 0 || tot.Last.After(end) {
			t.Errorf("monitor %s: %d entries, last at %v, want some and none after the window's end at %v",
				mon.Name, tot.Entries, tot.Last.Sub(simnet.Epoch), end.Sub(simnet.Epoch))
		}
	}
}
