package simnet

import "time"

// LatencyModel describes one-way message delays between regions; each
// engine draws the jitter from its own stream.
type LatencyModel struct {
	// Base holds one-way base latencies per region pair. Missing pairs fall
	// back to Default.
	Base map[[2]Region]time.Duration
	// Default is the fallback base latency.
	Default time.Duration
	// JitterFrac scales the uniform jitter added on top of the base
	// latency: delay = base * (1 + U(0, JitterFrac)).
	JitterFrac float64
}

// DefaultLatencyModel returns a latency model with intra-continental RTTs in
// the tens of milliseconds and transatlantic RTTs near 100 ms, loosely based
// on public inter-region measurements.
func DefaultLatencyModel() *LatencyModel {
	eu := []Region{RegionNL, RegionDE, RegionFR}
	na := []Region{RegionUS, RegionCA}
	base := map[[2]Region]time.Duration{}
	set := func(a, b Region, d time.Duration) {
		base[[2]Region{a, b}] = d
		base[[2]Region{b, a}] = d
	}
	for _, a := range eu {
		for _, b := range eu {
			set(a, b, 12*time.Millisecond)
		}
	}
	for _, a := range na {
		for _, b := range na {
			set(a, b, 25*time.Millisecond)
		}
	}
	for _, a := range eu {
		for _, b := range na {
			set(a, b, 55*time.Millisecond)
		}
	}
	for _, a := range append(append([]Region{}, eu...), na...) {
		set(a, RegionOther, 90*time.Millisecond)
	}
	set(RegionOther, RegionOther, 120*time.Millisecond)
	return &LatencyModel{
		Base:       base,
		Default:    80 * time.Millisecond,
		JitterFrac: 0.3,
	}
}

// BaseFor returns the base (jitter-free) delay from region a to region b.
func (m *LatencyModel) BaseFor(a, b Region) time.Duration {
	if base, ok := m.Base[[2]Region{a, b}]; ok {
		return base
	}
	return m.Default
}

// Min returns the smallest delay the model can produce (jitter only adds
// on top of the base). Parallel engines derive their conservative lookahead
// window from it: no message can cross shards faster.
func (m *LatencyModel) Min() time.Duration {
	min := m.Default
	for _, d := range m.Base {
		if d < min {
			min = d
		}
	}
	return min
}

// Max returns the largest delay the model can produce. Direct replay uses
// it to bound message lifetime: a message is guaranteed delivered (or
// dropped) once the virtual clock passes its send time plus Max.
func (m *LatencyModel) Max() time.Duration {
	max := m.Default
	for _, d := range m.Base {
		if d > max {
			max = d
		}
	}
	if m.JitterFrac > 0 {
		max = time.Duration(float64(max) * (1 + m.JitterFrac))
	}
	return max
}

// Fixed returns a model with a constant delay, useful in tests.
func Fixed(d time.Duration) *LatencyModel {
	return &LatencyModel{Default: d}
}
