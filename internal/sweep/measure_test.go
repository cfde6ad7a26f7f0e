package sweep

import (
	"testing"
	"time"

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
