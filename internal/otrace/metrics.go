package otrace

import (
	"sync/atomic"

	"bitswapmon/internal/obs"
)

// otraceMetrics bridges the flight recorder's health into the obs registry:
// span volume and overflow loss are visible on a live /metrics scrape
// instead of only in export sidecars — an operator watching a monitor
// daemon can see trace loss the moment sampling outruns the span buffer.
type otraceMetrics struct {
	spans *obs.Counter // otrace_spans_total
	drops *obs.Counter // otrace_drops_total
}

var otMetrics atomic.Pointer[otraceMetrics]

// EnableMetrics registers the tracer metrics in r (obs.Default when nil)
// and turns instrumentation on for tracers created afterwards. When never
// called, Record pays only a nil check on a pointer resolved at New.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		r = obs.Default
	}
	otMetrics.Store(&otraceMetrics{
		spans: r.Counter("otrace_spans_total",
			"Spans recorded into the flight recorder's span buffer."),
		drops: r.Counter("otrace_drops_total",
			"Spans discarded because the span buffer was full."),
	})
}
