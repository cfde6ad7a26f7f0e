// Package simnet is a deterministic discrete-event simulator for peer-to-peer
// overlay networks.
//
// It provides virtual time, latency-modelled message delivery between
// connected nodes, timers, and a connection table with per-node capacity
// limits. All randomness flows from a single seed, so a simulation is
// reproducible bit-for-bit for a given seed and shard count.
//
// There is one event loop. A Network places its nodes on one or more shards,
// each owning one binary min-heap of events ordered by (time, seq), and every
// shard drains its heap through the same code. What the shard count changes:
//
//   - One shard (New, or NewSharded with Shards: 1): RunUntil pops the heap
//     inline on the caller's goroutine and the clock is exact at every
//     event. Timers go straight into the heap, handlers hear of connection
//     changes synchronously and latency jitter comes from the root RNG. This
//     is the serial reference.
//   - Several shards: a coordinator advances the shards in lockstep over
//     conservative lookahead windows, each shard draining its own heap on a
//     worker goroutine (see runWindows). Now is the window start; EventTime
//     stays exact. Timers scheduled from event code, cross-shard sends and
//     connection notifications cross shards as events merged at the window
//     barrier, and jitter comes from a per-shard splitmix64 stream. Output is
//     deterministic per seed and shard count, but differs between counts.
package simnet

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"bitswapmon/internal/obs"
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

// Epoch is the virtual start time of a world whose spec names none.
var Epoch = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// sev is one scheduled event, stored by value in its shard's heap: a
// callback when fn != nil, otherwise an in-flight message delivery carried
// inline, so the send path allocates no closure and no per-event node.
type sev struct {
	atNs  int64   // virtual time, nanoseconds since the network's start
	seq   uint64  // the shard's insertion order, breaking ties within equal atNs
	fn    func()  // timer callback; nil for message deliveries
	msg   any     // delivery payload (fn == nil)
	from  NodeRef // delivery sender
	to    NodeRef // delivery receiver
	epoch uint64  // sender's peer-set epoch at send time
	// tr carries the trace context of a sampled send (nil otherwise); the
	// message itself is never wrapped, so handlers and taps see exactly the
	// traffic of an untraced run.
	tr *otrace.HopRef
}

// before is the (time, seq) total order every shard drains in. seq is unique
// within a shard, so the pop sequence does not depend on the heap's shape.
func (a *sev) before(b *sev) bool {
	return a.atNs < b.atNs || a.atNs == b.atNs && a.seq < b.seq
}

// ShardedConfig parametrises a Network.
type ShardedConfig struct {
	// Shards is the number of shards (default: 4). Shard 0 is the control
	// shard: it runs all control-affine timers plus every pinned node
	// (monitors, gateways).
	Shards int
	// Latency is the delay model; nil selects DefaultLatencyModel.
	Latency *LatencyModel
}

// Network is the simulator. Construct with New or NewSharded. Membership,
// connections and base latency live in the embedded Table; the network adds
// the shards' event heaps, the clock, the jitter streams and connection
// notifications. Run, RunUntil, AddNode and Pin are for one controlling
// goroutine, never for event code.
type Network struct {
	*Table
	start   time.Time
	startNs int64 // start.UnixNano(), for span stamps
	// nowNs is virtual now in nanoseconds since start: exact at every event
	// with one shard, the current window's start with several.
	nowNs int64

	rootMu  sync.Mutex
	rootRNG *rand.Rand

	shards []*shard
	// shardOf is each node's owner shard, indexed by its table ref; written
	// only while the network is idle (AddNode/Pin contract).
	shardOf []int32
	part    *regionPartition // nil: hash placement
	qNs     int64            // lookahead window width
	serial  bool             // one shard: inline drain, synchronous notifications
	running bool             // a window loop is in progress (several shards)

	// m is the telemetry handle resolved at construction; nil (metrics
	// never enabled) keeps every hot path at a single branch.
	m *engineMetrics

	// tracer records request spans when set (see internal/otrace).
	tracer *otrace.Tracer
}

// outCell buffers one (src,dst) shard pair's in-window sends.
type outCell struct {
	mu  sync.Mutex
	evs []sev
}

// shard is one event heap and the state of the goroutine draining it. Its
// heap is single-writer: the shard's worker while a window runs, the
// goroutine calling Run otherwise. Other shards reach it only through the inbox and the
// outbox cells, which the coordinator merges at window barriers.
type shard struct {
	q   []sev // binary min-heap by (atNs, seq)
	seq uint64

	// inbox receives timers scheduled from event code on any shard.
	inMu  sync.Mutex
	inbox []sev
	// out[d] buffers sends from this shard to shard d within one window.
	out []outCell

	rng uint64 // splitmix64 jitter state (several shards)

	// curAtNs is the exact virtual time of the event this shard is
	// executing; curIn is its trace context when it is a traced delivery.
	// Read only by event code running on this shard (EventTime/InboundCtx).
	curAtNs int64
	curIn   otrace.Ctx

	delivered, dropped uint64
	// events, sends and cross count since the last flush into met.
	events, sends, cross uint64
	met                  shardMetrics
	procNs               int64 // this window's processing time (instrumented runs)
	busy                 bool  // signalled for the current window
}

// New creates a one-shard network starting at the given virtual time with
// the given seed. A nil latency model selects DefaultLatencyModel.
func New(start time.Time, seed int64, lm *LatencyModel) *Network {
	return NewSharded(start, seed, ShardedConfig{Shards: 1, Latency: lm})
}

// NewSharded creates a network over cfg.Shards shards. NewRand derives the
// same labelled streams for the same seed at every shard count, so world
// construction does not depend on it.
func NewSharded(start time.Time, seed int64, cfg ShardedConfig) *Network {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	n := &Network{
		start:   start,
		startNs: start.UnixNano(),
		rootRNG: rand.New(rand.NewSource(seed)),
		shards:  make([]*shard, cfg.Shards),
		serial:  cfg.Shards == 1,
		m:       engMetrics.Load(),
	}
	n.Table = NewTable(cfg.Latency, n.notify)
	lm := n.Latency()
	n.part = planPartition(lm, cfg.Shards)
	// The synchronization window is the minimum latency of any cross-shard
	// region pair: anything longer could deliver a cross-shard message into
	// a window its destination has already processed.
	la := lm.Min()
	if n.part != nil {
		la = n.part.lookahead
	}
	if la <= 0 {
		la = time.Millisecond
	}
	n.qNs = int64(la)
	for i := range n.shards {
		n.shards[i] = &shard{
			rng: uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(i+1),
			out: make([]outCell, cfg.Shards),
			met: newShardMetrics(n.m, i),
		}
	}
	return n
}

// Lookahead returns the conservative synchronization window.
func (n *Network) Lookahead() time.Duration { return time.Duration(n.qNs) }

// Now returns the current virtual time: exact with one shard, the current
// window's start while several shards run.
func (n *Network) Now() time.Time { return n.start.Add(time.Duration(n.nowNs)) }

// SetTracer installs the span recorder (nil disables tracing). Call before
// the first Run. The trace context of a sampled send rides inside the event
// structures — messages are never wrapped — so handlers observe exactly the
// traffic an untraced run produces.
func (n *Network) SetTracer(t *otrace.Tracer) { n.tracer = t }

// Tracer returns the installed span recorder.
func (n *Network) Tracer() *otrace.Tracer { return n.tracer }

// EventTime returns the exact virtual time of the event currently executing
// for id. Call only from event code running for id; outside a run it is Now.
func (n *Network) EventTime(id NodeID) time.Time {
	if n.running {
		if at := n.shards[n.ShardOf(id)].curAtNs; at != 0 {
			return n.start.Add(time.Duration(at))
		}
	}
	return n.Now()
}

// InboundCtx returns the trace context of the message currently being
// handled for id (zero outside HandleMessage or for untraced messages).
// Call only from event code running for id.
func (n *Network) InboundCtx(id NodeID) otrace.Ctx {
	return n.shards[n.ShardOf(id)].curIn
}

// NewRand derives an independent deterministic RNG labelled by name. Call at
// build time or between Run calls, never from event code. Each call draws
// from the root stream that the serial engine's latency jitter also draws
// from, so analysis code must not call it: a report finalizing mid-run (a
// daemon's window closing) would shift every later delivery.
func (n *Network) NewRand(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	n.rootMu.Lock()
	defer n.rootMu.Unlock()
	return rand.New(rand.NewSource(n.rootRNG.Int63() ^ int64(h.Sum64())))
}

// ShardOf returns the shard that runs a node's events; unknown nodes map to
// the control shard.
func (n *Network) ShardOf(id NodeID) int {
	if !n.serial {
		if r, ok := n.Ref(id); ok {
			return int(n.shardOf[r])
		}
	}
	return 0
}

// AddNode registers a node: latency-aware region placement when the model
// has region data, ID-hash placement otherwise. Call at build time or
// between Run calls, never from event code.
func (n *Network) AddNode(id NodeID, addr string, region Region, maxConns int, h Handler) error {
	if err := n.Table.AddNode(id, addr, region, maxConns, h); err != nil {
		return err
	}
	shard := hashShard(id, len(n.shards))
	if n.part != nil {
		shard = n.part.shardFor(region, len(n.shards))
	}
	n.shardOf = append(n.shardOf, shard)
	return nil
}

// Pin moves a node to the control shard (a no-op with one shard). Monitors
// and gateways pin themselves: their state is also touched by control-affine
// orchestration code. Pin right after AddNode, before any event for the node
// is scheduled.
func (n *Network) Pin(id NodeID) {
	if r, ok := n.Ref(id); ok {
		n.shardOf[r] = 0
	}
}

// notify tells node's handler that its connection to peer went up or down:
// synchronously with one shard, as an event on the node's owner shard with
// several.
func (n *Network) notify(node, peer NodeRef, up bool) {
	h, p := n.Handler(node), n.ID(peer)
	if n.serial {
		if up {
			h.PeerConnected(p)
		} else {
			h.PeerDisconnected(p)
		}
		return
	}
	var fn func()
	if up {
		fn = func() { h.PeerConnected(p) }
	} else {
		fn = func() { h.PeerDisconnected(p) }
	}
	n.schedTimer(int(n.shardOf[node]), n.nowNs, fn)
}

// schedTimer routes a timer event: straight into the target heap unless a
// window loop is running, in which case it goes through the target's locked
// inbox and runs no earlier than the next window.
func (n *Network) schedTimer(shard int, atNs int64, fn func()) {
	sh := n.shards[shard]
	if !n.running {
		sh.push(sev{atNs: atNs, fn: fn})
		return
	}
	sh.inMu.Lock()
	sh.inbox = append(sh.inbox, sev{atNs: atNs, fn: fn})
	sh.inMu.Unlock()
}

// After schedules fn after d of virtual time on the control shard.
func (n *Network) After(d time.Duration, fn func()) {
	n.schedTimer(0, n.nowNs+int64(d), fn)
}

// At schedules fn at an absolute virtual time (clamped to now) on the
// control shard.
func (n *Network) At(t time.Time, fn func()) {
	n.schedTimer(0, max(int64(t.Sub(n.start)), n.nowNs), fn)
}

// AfterOn schedules fn after d of virtual time on the shard owning id.
func (n *Network) AfterOn(id NodeID, d time.Duration, fn func()) {
	n.schedTimer(n.ShardOf(id), n.nowNs+int64(d), fn)
}

// Post schedules fn as soon as possible on the shard owning id.
func (n *Network) Post(id NodeID, fn func()) {
	n.schedTimer(n.ShardOf(id), n.nowNs, fn)
}

// Send schedules delivery of msg from one connected node to another, after
// the modelled latency. Messages in flight when a connection drops are
// dropped too (checked at delivery time).
func (n *Network) Send(from, to NodeID, msg any) error {
	r, err := n.Route(from, to)
	if err != nil {
		return err
	}
	n.send(r, msg, nil)
	return nil
}

// SendRef is Send with pre-resolved endpoints, carrying a trace context:
// under a sampled tc the hop from send to delivery is recorded as a span and
// the context is exposed to the receiving handler via InboundCtx; a zero tc
// sends untraced. Timing and RNG draws do not depend on tc; cross-shard
// lookahead flooring is surfaced as the hop span's QueueNs.
func (n *Network) SendRef(tc otrace.Ctx, hop string, from, to NodeRef, msg any) error {
	r, err := n.RouteRef(from, to)
	if err != nil {
		return err
	}
	n.send(r, msg, n.hopRef(tc, hop))
	return nil
}

// SendEachRef sends msg, as SendRef does, to every peer in from's published
// peer set, in ID order, and calls sent with each peer after its send. The
// set is loaded once and needs no per-peer lookup: every peer in it is
// connected at its epoch. The peers share msg, which is read-only once sent.
func (n *Network) SendEachRef(tc otrace.Ctx, hop string, from NodeRef, msg any, sent func(NodeRef)) {
	set := n.cells[from].set.Load()
	base := n.base[n.region[from]]
	for _, p := range set.peers {
		n.send(Route{From: from, To: p, Epoch: set.epoch, Base: base[n.region[p]]}, msg, n.hopRef(tc, hop))
		sent(p)
	}
}

// hopRef is the trace context a send carries: nil unless a tracer is
// installed and tc is sampled.
func (n *Network) hopRef(tc otrace.Ctx, hop string) *otrace.HopRef {
	if n.tracer == nil || !tc.Sampled() {
		return nil
	}
	return &otrace.HopRef{Ctx: tc, Name: hop}
}

// send schedules a routed delivery. Same-shard deliveries go straight into
// the shard's heap with the exact sampled delay. Cross-shard deliveries are
// floored at the lookahead and, while windows run, buffered in the
// (src,dst) outbox cell the coordinator merges at the barrier — so they
// always land in a window the destination has not started.
func (n *Network) send(r Route, msg any, tr *otrace.HopRef) {
	fromShard, toShard := n.shardOf[r.From], n.shardOf[r.To]
	sh := n.shards[fromShard]
	var u float64
	if n.serial {
		u = n.rootRNG.Float64()
	} else {
		u = sh.u01()
	}
	delay := int64(float64(r.Base) * (1 + u*n.lm.JitterFrac))
	// Anchor the delivery at the sender's exact event time: sends run in
	// the sender's event code on its owner shard (the affinity rule), so
	// curAtNs is the precise send time while windows run, and nowNs is
	// exact otherwise.
	sendNs := n.nowNs
	if n.running && sh.curAtNs != 0 {
		sendNs = sh.curAtNs
	}
	e := sev{atNs: sendNs + delay, msg: msg, from: r.From, to: r.To, epoch: r.Epoch, tr: tr}
	if tr != nil {
		tr.SendNs = n.startNs + sendNs
	}
	sh.sends++
	if fromShard == toShard {
		sh.push(e)
		return
	}
	sh.cross++
	if delay < n.qNs {
		// Conservative lookahead floor: sendNs >= the window start, so
		// sendNs+qNs clears the current window's end.
		e.atNs = sendNs + n.qNs
		if tr != nil {
			tr.QueueNs = n.qNs - delay
		}
	}
	if !n.running {
		n.shards[toShard].push(e)
		return
	}
	cell := &sh.out[toShard]
	cell.mu.Lock()
	cell.evs = append(cell.evs, e)
	cell.mu.Unlock()
}

// u01 draws the next uniform [0,1) latency jitter from the shard's
// splitmix64 stream.
func (sh *shard) u01() float64 {
	sh.rng += 0x9e3779b97f4a7c15
	z := sh.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// push inserts e into the shard's heap, stamping its sequence number.
func (sh *shard) push(e sev) {
	sh.seq++
	e.seq = sh.seq
	q := append(sh.q, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	if i != len(q)-1 {
		q[i] = e
	}
	sh.q = q
}

// pop removes the heap's minimum, which the caller reads from q[0] first
// (returning the 64-byte event costs the event loop measurable time); the
// heap must not be empty.
func (sh *shard) pop() {
	q := sh.q
	last := len(q) - 1
	e := q[last]
	q[last] = sev{} // drop the payload reference
	q = q[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&e) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = e
	}
	sh.q = q
}

// due reports whether the shard has an event before end (at end when
// inclusive).
func (sh *shard) due(end int64, inclusive bool) bool {
	return len(sh.q) > 0 && (sh.q[0].atNs < end || inclusive && sh.q[0].atNs == end)
}

// drain runs the shard's events before end (and at end when inclusive) in
// (time, seq) order, including the ones they schedule into that range.
func (n *Network) drain(sh *shard, end int64, inclusive bool) {
	for sh.due(end, inclusive) {
		e := sh.q[0]
		sh.pop()
		if n.serial && e.atNs > n.nowNs {
			n.nowNs = e.atNs
		}
		n.exec(sh, &e)
	}
	sh.flush()
}

// exec runs one event on its shard's goroutine.
func (n *Network) exec(sh *shard, e *sev) {
	sh.curAtNs = e.atNs
	sh.events++
	if e.fn != nil {
		e.fn()
		return
	}
	if !n.Deliverable(e.from, e.to, e.epoch) {
		sh.dropped++
		if e.tr != nil {
			n.tracer.RecordHop(e.tr, n.ID(e.to).String(), n.startNs+e.atNs, true)
		}
		return
	}
	sh.delivered++
	h := n.Handler(e.to)
	if e.tr != nil {
		n.tracer.RecordHop(e.tr, n.ID(e.to).String(), n.startNs+e.atNs, false)
		sh.curIn = e.tr.Ctx
		h.HandleMessage(n.ID(e.from), e.msg)
		sh.curIn = otrace.Ctx{}
		return
	}
	h.HandleMessage(n.ID(e.from), e.msg)
}

// flush adds the shard's counts since the last flush to its metrics; with
// metrics off the handles are nil and only the local counts reset.
func (sh *shard) flush() {
	sh.met.events.Add(sh.events)
	sh.met.sends.Add(sh.sends)
	sh.met.cross.Add(sh.cross)
	sh.met.depth.Set(float64(len(sh.q)))
	sh.events, sh.sends, sh.cross = 0, 0, 0
}

// Stats reports delivery counters. Call between runs.
func (n *Network) Stats() (delivered, dropped uint64) {
	for _, sh := range n.shards {
		delivered += sh.delivered
		dropped += sh.dropped
	}
	return delivered, dropped
}

// Run processes events for d of virtual time. Run and RunUntil may only be
// called from one goroutine at a time, never from event code.
func (n *Network) Run(d time.Duration) { n.RunUntil(n.Now().Add(d)) }

// RunUntil processes events up to and including deadline, then leaves the
// clock at deadline. With one shard the heap is drained inline; with several
// the shards advance in lockstep windows.
func (n *Network) RunUntil(deadline time.Time) {
	deadNs := int64(deadline.Sub(n.start))
	if n.serial {
		n.drain(n.shards[0], deadNs, true)
	} else {
		n.runWindows(deadNs)
	}
	n.nowNs = max(n.nowNs, deadNs)
}

// runWindows is the multi-shard coordinator. Each window starts at the
// global minimum event time m and ends at the next lookahead boundary,
// end = (m/L+1)·L, or at the deadline (inclusive) if that comes first.
// Because every cross-shard message takes at least L of virtual time, no
// event inside the window can require delivery inside it on another shard:
// the shards with work drain their heaps up to end in parallel, and the
// coordinator merges inboxes and outboxes into the heaps at the barrier.
// Merged events carry at >= end, so they always land in a window no shard
// has started.
func (n *Network) runWindows(deadNs int64) {
	type win struct {
		end       int64
		inclusive bool
	}
	goChs := make([]chan win, len(n.shards))
	arrive := make(chan struct{}, len(n.shards))
	instrumented := n.m != nil
	var wg sync.WaitGroup
	for i, sh := range n.shards {
		goChs[i] = make(chan win)
		wg.Add(1)
		go func(ch chan win) {
			defer wg.Done()
			for c := range ch {
				var sw obs.Stopwatch
				if instrumented {
					sw.Start()
				}
				n.drain(sh, c.end, c.inclusive)
				if instrumented {
					sh.procNs = sw.Elapsed().Nanoseconds()
				}
				arrive <- struct{}{}
			}
		}(goChs[i])
	}
	n.running = true
	for {
		n.mergeMailboxes()
		m, ok := n.earliest()
		if !ok || m > deadNs {
			break
		}
		n.nowNs = max(n.nowNs, m)
		end, inclusive := (m/n.qNs+1)*n.qNs, false
		if end > deadNs {
			end, inclusive = deadNs, true
		}
		var window obs.Stopwatch
		if instrumented {
			window.Start()
		}
		// Only shards with work in this window are signalled; idle shards
		// stay parked at the barrier.
		started := 0
		for i, sh := range n.shards {
			sh.busy = sh.due(end, inclusive)
			if sh.busy {
				goChs[i] <- win{end, inclusive}
				started++
			}
		}
		for range started {
			<-arrive
		}
		if instrumented {
			// Barrier wait per shard: how long it sat idle after finishing
			// its own window while the slowest shard caught up.
			wall := window.Elapsed().Nanoseconds()
			for _, sh := range n.shards {
				if wait := wall - sh.procNs; sh.busy && wait > 0 {
					sh.met.barrier.Observe(float64(wait) / 1e9)
				}
			}
			n.m.windows.Inc()
		}
	}
	for _, ch := range goChs {
		close(ch)
	}
	wg.Wait()
	n.running = false
	// Sends made while idle are counted on their sender's shard, which may
	// not have run a window since.
	for _, sh := range n.shards {
		sh.flush()
	}
}

// mergeMailboxes drains every inbox and outbox cell into the destination
// heaps, in shard order. Runs on the coordinator between windows, when all
// workers are at the barrier.
func (n *Network) mergeMailboxes() {
	for _, sh := range n.shards {
		sh.inMu.Lock()
		in := sh.inbox
		sh.inbox = in[:0]
		sh.inMu.Unlock()
		for _, e := range in {
			sh.push(e)
		}
		for di := range sh.out {
			cell := &sh.out[di]
			cell.mu.Lock()
			evs := cell.evs
			cell.evs = evs[:0]
			cell.mu.Unlock()
			dst := n.shards[di]
			for _, e := range evs {
				dst.push(e)
			}
		}
	}
}

// earliest returns the smallest pending event time over all shards.
func (n *Network) earliest() (m int64, ok bool) {
	for _, sh := range n.shards {
		if len(sh.q) > 0 && (!ok || sh.q[0].atNs < m) {
			m, ok = sh.q[0].atNs, true
		}
	}
	return m, ok
}
