package monitor

import (
	"time"

	"bitswapmon/internal/engine"
	"bitswapmon/internal/simnet"
)

// Sample is one periodic snapshot across all monitors.
type Sample struct {
	At time.Time
	// PerMonitor holds each monitor's instantaneous connection count.
	PerMonitor []int
	// Union is the size of the union of the monitors' peer sets.
	Union int
	// Intersection is the size of the pairwise intersection (only
	// populated for two monitors; zero otherwise).
	Intersection int
}

// Sampler periodically snapshots the monitors' peer sets, producing the
// inputs for the Sec. V-C size estimates ("the monitors were connected to an
// average number of ... peers").
type Sampler struct {
	net      engine.Engine
	monitors []*Monitor
	interval time.Duration
	samples  []Sample
	running  bool
}

// NewSampler creates a sampler over the given monitors.
func NewSampler(net engine.Engine, monitors []*Monitor, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = time.Hour
	}
	return &Sampler{net: net, monitors: monitors, interval: interval}
}

// Start arms periodic sampling (first sample after one interval).
func (s *Sampler) Start() {
	s.running = true
	s.schedule()
}

// Stop halts sampling after the current tick.
func (s *Sampler) Stop() { s.running = false }

func (s *Sampler) schedule() {
	s.net.After(s.interval, func() {
		if !s.running {
			return
		}
		s.take()
		s.schedule()
	})
}

func (s *Sampler) take() {
	sample := Sample{At: s.net.Now()}
	union := make(map[simnet.NodeID]int)
	for _, m := range s.monitors {
		peers := m.CurrentPeers()
		sample.PerMonitor = append(sample.PerMonitor, len(peers))
		for _, p := range peers {
			union[p]++
		}
	}
	sample.Union = len(union)
	if len(s.monitors) == 2 {
		for _, count := range union {
			if count == 2 {
				sample.Intersection++
			}
		}
	}
	s.samples = append(s.samples, sample)
}

// Samples returns the collected snapshots.
func (s *Sampler) Samples() []Sample { return s.samples }
