package engine

import "bitswapmon/internal/otrace"

// SendCtx sends msg, attaching the trace context when it is sampled and a
// tracer is installed; otherwise it is a plain Send.
func SendCtx(net Engine, tc otrace.Ctx, hop string, from, to NodeID, msg any) error {
	if tc.Sampled() && net.Tracer() != nil {
		return net.SendTraced(tc, hop, from, to, msg)
	}
	return net.Send(from, to, msg)
}
