package simnet

import (
	"strconv"
	"sync/atomic"

	"bitswapmon/internal/obs"
)

// engineMetrics is the event loop's telemetry surface: shard-level
// visibility into the hot path (per-shard event rates, barrier waits,
// timer-queue depth, cross-shard traffic) — the numbers that tell an
// operator whether the next 10× needs wider lookahead windows, better shard
// partitioning, or just more shards. One-shard runs report their events,
// sends and queue depth too; they have no windows or barriers.
type engineMetrics struct {
	events  *obs.CounterVec   // engine_shard_events_total{shard}
	barrier *obs.HistogramVec // engine_shard_barrier_wait_seconds{shard}
	depth   *obs.GaugeVec     // engine_shard_timer_queue_depth{shard}
	cross   *obs.Counter      // engine_cross_shard_sends_total
	sends   *obs.Counter      // engine_sends_total
	windows *obs.Counter      // engine_windows_total
}

var engMetrics atomic.Pointer[engineMetrics]

// EnableMetrics registers the engine's metrics in r (obs.Default when nil)
// and turns instrumentation on for engines created afterwards. When it has
// never been called, the handles resolved at engine construction are nil and
// the event loop keeps only its plain per-shard counts.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		r = obs.Default
	}
	engMetrics.Store(&engineMetrics{
		events: r.CounterVec("engine_shard_events_total",
			"Events processed per worker shard.", "shard"),
		barrier: r.HistogramVec("engine_shard_barrier_wait_seconds",
			"Per-window time a shard spent idle at the lockstep barrier waiting for the slowest shard.",
			obs.ExponentialBuckets(1e-6, 10, 8), "shard"),
		depth: r.GaugeVec("engine_shard_timer_queue_depth",
			"Pending events in a shard's event heap, sampled whenever the shard finishes a window or run.", "shard"),
		cross: r.Counter("engine_cross_shard_sends_total",
			"Messages whose sender and receiver live on different shards."),
		sends: r.Counter("engine_sends_total",
			"Messages scheduled for delivery."),
		windows: r.Counter("engine_windows_total",
			"Conservative lookahead windows processed."),
	})
}

// shardMetrics is the per-shard slice of engineMetrics, resolved once at
// NewSharded so the event loop touches no label maps. Every handle is nil
// when metrics are off.
type shardMetrics struct {
	events  *obs.Counter
	barrier *obs.Histogram
	depth   *obs.Gauge
	sends   *obs.Counter
	cross   *obs.Counter
}

func newShardMetrics(m *engineMetrics, shard int) shardMetrics {
	if m == nil {
		return shardMetrics{}
	}
	s := strconv.Itoa(shard)
	return shardMetrics{
		events:  m.events.With(s),
		barrier: m.barrier.With(s),
		depth:   m.depth.With(s),
		sends:   m.sends,
		cross:   m.cross,
	}
}
