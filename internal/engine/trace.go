package engine

import (
	"time"

	"bitswapmon/internal/otrace"
)

// Tracing is the engine's virtual-time causal request tracing and its exact
// per-event clock.
//
// The trace context of a sampled send rides inside the engine's event
// structures — messages themselves are never wrapped, so message taps and
// handlers observe exactly the traffic an untraced run produces, and tracing
// can never perturb event timing or RNG draws.
type Tracing interface {
	// SetTracer installs the span recorder. Call before Run; a nil tracer
	// disables tracing.
	SetTracer(t *otrace.Tracer)
	// Tracer returns the installed recorder (nil when disabled).
	Tracer() *otrace.Tracer
	// SendTraced is Send carrying a trace context: the engine records a hop
	// span from the exact send time to the delivery (or drop) time and
	// exposes the context to the receiving handler via InboundCtx.
	SendTraced(tc otrace.Ctx, hop string, from, to NodeID, msg any) error
	// InboundCtx returns the trace context of the message currently being
	// handled for node id (zero outside HandleMessage or for untraced
	// messages). Call only from event code running for id.
	InboundCtx(id NodeID) otrace.Ctx
	// EventTime returns the exact virtual time of the event currently
	// executing for node id — unlike Now, which several shards quantize to
	// the window start. Call only from event code running for id; outside a
	// run it falls back to Now.
	EventTime(id NodeID) time.Time
}

// SendCtx sends msg, attaching the trace context when it is sampled and a
// tracer is installed; otherwise it is a plain Send.
func SendCtx(net Engine, tc otrace.Ctx, hop string, from, to NodeID, msg any) error {
	if tc.Sampled() && net.Tracer() != nil {
		return net.SendTraced(tc, hop, from, to, msg)
	}
	return net.Send(from, to, msg)
}
