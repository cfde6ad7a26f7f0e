// Package simnet is a deterministic discrete-event simulator for peer-to-peer
// overlay networks.
//
// It provides virtual time, latency-modelled message delivery between
// connected nodes, timers, and a connection table with per-node capacity
// limits. All randomness flows from a single seed, so simulations are
// reproducible bit-for-bit. The simulator is single-threaded: handlers run
// inside Run on the caller's goroutine, which removes all locking and
// scheduling nondeterminism.
package simnet

import (
	"hash/fnv"
	"math/rand"
	"time"

	"bitswapmon/internal/otrace"
)

// Handler is the behaviour a node plugs into the network. Handlers are
// invoked synchronously by the event loop; they must not block.
type Handler interface {
	// HandleMessage delivers a message from a connected peer.
	HandleMessage(from NodeID, msg any)
	// PeerConnected notifies that a connection to p is now up.
	PeerConnected(p NodeID)
	// PeerDisconnected notifies that the connection to p is gone.
	PeerDisconnected(p NodeID)
}

// Region is a coarse geographic location used by the latency model and by
// the GeoIP substitution.
type Region string

// Regions used by the default latency model. The set matches the paper's
// Table II countries plus a catch-all.
const (
	RegionUS    Region = "US"
	RegionNL    Region = "NL"
	RegionDE    Region = "DE"
	RegionCA    Region = "CA"
	RegionFR    Region = "FR"
	RegionOther Region = "XX"
)

// event is one scheduled action: a callback when fn != nil, otherwise an
// in-flight message delivery carried inline. Deliveries dominate the event
// loop, so carrying their payload in the event instead of a closure saves
// one allocation per send and the node-table lookups at delivery time.
type event struct {
	at time.Time
	// atNs is at.UnixNano(), precomputed so heap comparisons are integer
	// compares instead of time.Time wall/monotonic unpacking.
	atNs int64
	seq  uint64
	fn   func()
	// Delivery payload (fn == nil): msg travels from -> to; epoch is the
	// sender's peer-set epoch at send time.
	msg      any
	from, to NodeRef
	epoch    uint64
	// tr carries the trace context of a sampled send (nil otherwise); the
	// message itself is never wrapped, so handlers and taps see exactly the
	// traffic of an untraced run.
	tr *otrace.HopRef
}

// eventQueue is a binary min-heap ordered by (at, seq). The (at, seq) pair
// is a total order — seq is unique — so the pop sequence is independent of
// heap shape and any correct heap implementation is behaviourally
// equivalent. The sift loops are inlined (rather than container/heap) to
// avoid interface dispatch on the hottest path in the simulator.
type eventQueue []*event

func (q eventQueue) less(i, j int) bool {
	if q[i].atNs != q[j].atNs {
		return q[i].atNs < q[j].atNs
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Peek() *event { return q[0] }

func (n *Network) qPush(e *event) {
	q := append(n.queue, e)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	n.queue = q
}

func (n *Network) qPop() *event {
	q := n.queue
	e := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	n.queue = q
	return e
}

// Network is the simulator. Construct with New; not safe for concurrent use.
// Membership, connections and base latency live in the embedded Table; the
// network adds the event heap, the clock, the jitter stream and synchronous
// connection notifications.
type Network struct {
	*Table
	now     time.Time
	seq     uint64
	queue   eventQueue
	rootRNG *rand.Rand

	// pool recycles event structs between schedule and step.
	pool []*event

	// counters
	delivered uint64
	dropped   uint64

	// tracer records request spans when set (see internal/otrace); curIn is
	// the trace context of the delivery currently being handled.
	tracer *otrace.Tracer
	curIn  otrace.Ctx
}

// New creates a network starting at the given virtual time with the given
// seed. A nil latency model selects DefaultLatencyModel.
func New(start time.Time, seed int64, lm *LatencyModel) *Network {
	n := &Network{
		now:     start,
		rootRNG: rand.New(rand.NewSource(seed)),
	}
	n.Table = NewTable(lm, n.notify)
	return n
}

// notify tells node's handler, synchronously, that its connection to peer
// went up or down.
func (n *Network) notify(node, peer NodeRef, up bool) {
	if up {
		n.Handler(node).PeerConnected(n.ID(peer))
	} else {
		n.Handler(node).PeerDisconnected(n.ID(peer))
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.now }

// SetTracer installs the span recorder (nil disables tracing).
func (n *Network) SetTracer(t *otrace.Tracer) { n.tracer = t }

// Tracer returns the installed span recorder.
func (n *Network) Tracer() *otrace.Tracer { return n.tracer }

// EventTime returns the exact virtual time of the executing event; the
// serial clock is already exact, so it equals Now.
func (n *Network) EventTime(id NodeID) time.Time { return n.now }

// InboundCtx returns the trace context of the message currently being
// handled (zero outside HandleMessage or for untraced messages).
func (n *Network) InboundCtx(id NodeID) otrace.Ctx { return n.curIn }

// NewRand derives an independent deterministic RNG labelled by name.
func (n *Network) NewRand(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(n.rootRNG.Int63() ^ int64(h.Sum64())))
}

// Pin is an affinity hint used by parallel engines; the serial network runs
// everything on one goroutine, so it is a no-op.
func (n *Network) Pin(id NodeID) {}

// Send schedules delivery of msg from one connected node to another, after
// the modelled latency. Messages in flight when a connection drops are
// dropped too (checked at delivery time).
func (n *Network) Send(from, to NodeID, msg any) error {
	r, err := n.Route(from, to)
	if err != nil {
		return err
	}
	n.sendTo(r, msg, nil)
	return nil
}

// SendTraced is Send carrying a trace context: the hop from send to delivery
// is recorded as a span and the context is exposed to the receiving handler
// via InboundCtx. Timing and RNG draws are identical to Send.
func (n *Network) SendTraced(tc otrace.Ctx, hop string, from, to NodeID, msg any) error {
	r, err := n.Route(from, to)
	if err != nil {
		return err
	}
	var ref *otrace.HopRef
	if n.tracer != nil && tc.Sampled() {
		ref = &otrace.HopRef{Ctx: tc, Name: hop, SendNs: n.now.UnixNano()}
	}
	n.sendTo(r, msg, ref)
	return nil
}

// SendRef is Send with pre-resolved endpoints. Semantics (connectivity
// check, latency sampling, delivery-time revalidation) are identical.
func (n *Network) SendRef(from, to NodeRef, msg any) error {
	r, err := n.RouteRef(from, to)
	if err != nil {
		return err
	}
	n.sendTo(r, msg, nil)
	return nil
}

func (n *Network) sendTo(r Route, msg any, tr *otrace.HopRef) {
	jitter := 1 + n.rootRNG.Float64()*n.lm.JitterFrac
	delay := time.Duration(float64(r.Base) * jitter)
	e := n.newEvent(n.now.Add(delay), nil)
	e.msg, e.from, e.to, e.epoch, e.tr = msg, r.From, r.To, r.Epoch, tr
	n.qPush(e)
}

// After schedules fn to run after d of virtual time.
func (n *Network) After(d time.Duration, fn func()) {
	n.schedule(n.now.Add(d), fn)
}

// AfterOn schedules fn after d of virtual time. The node affinity only
// matters to parallel engines; serially it is identical to After.
func (n *Network) AfterOn(id NodeID, d time.Duration, fn func()) {
	n.schedule(n.now.Add(d), fn)
}

// Post schedules fn to run as soon as possible (serially: as the next event
// at the current virtual time).
func (n *Network) Post(id NodeID, fn func()) {
	n.schedule(n.now, fn)
}

// At schedules fn at an absolute virtual time (clamped to now).
func (n *Network) At(t time.Time, fn func()) {
	if t.Before(n.now) {
		t = n.now
	}
	n.schedule(t, fn)
}

func (n *Network) newEvent(at time.Time, fn func()) *event {
	n.seq++
	var e *event
	if k := len(n.pool); k > 0 {
		e = n.pool[k-1]
		n.pool = n.pool[:k-1]
		e.at, e.atNs, e.seq, e.fn = at, at.UnixNano(), n.seq, fn
	} else {
		e = &event{at: at, atNs: at.UnixNano(), seq: n.seq, fn: fn}
	}
	return e
}

func (n *Network) schedule(at time.Time, fn func()) {
	n.qPush(n.newEvent(at, fn))
}

// step runs the next event; the queue must not be empty.
func (n *Network) step() {
	e := n.qPop()
	if e.at.After(n.now) {
		n.now = e.at
	}
	if e.fn == nil {
		// Inline message delivery, revalidated by the table.
		from, to, epoch, msg := e.from, e.to, e.epoch, e.msg
		tr, atNs := e.tr, e.atNs
		e.msg, e.tr = nil, nil
		if len(n.pool) < 1024 {
			n.pool = append(n.pool, e)
		}
		if !n.Deliverable(from, to, epoch) {
			n.dropped++
			if tr != nil {
				n.tracer.RecordHop(tr, n.ID(to).String(), atNs, true)
			}
			return
		}
		n.delivered++
		h := n.Handler(to)
		if tr != nil {
			n.tracer.RecordHop(tr, n.ID(to).String(), atNs, false)
			n.curIn = tr.Ctx
			h.HandleMessage(n.ID(from), msg)
			n.curIn = otrace.Ctx{}
			return
		}
		h.HandleMessage(n.ID(from), msg)
		return
	}
	fn := e.fn
	e.fn = nil
	if len(n.pool) < 1024 {
		n.pool = append(n.pool, e)
	}
	fn()
}

// RunUntil processes events until the queue empties or virtual time would
// pass deadline. The clock is left at deadline if it was reached.
func (n *Network) RunUntil(deadline time.Time) {
	dl := deadline.UnixNano()
	for len(n.queue) > 0 {
		if n.queue.Peek().atNs > dl {
			break
		}
		n.step()
	}
	if n.now.Before(deadline) {
		n.now = deadline
	}
}

// Run processes events for d of virtual time.
func (n *Network) Run(d time.Duration) {
	n.RunUntil(n.now.Add(d))
}

// Stats reports delivery counters.
func (n *Network) Stats() (delivered, dropped uint64) {
	return n.delivered, n.dropped
}
