package engine

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bitswapmon/internal/obs"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
)

// ShardedConfig parametrises the parallel engine.
type ShardedConfig struct {
	// Shards is the number of worker shards (default: 4). Shard 0 is the
	// control shard: it runs all control-affine timers plus every pinned
	// node (monitors, gateways).
	Shards int
	// Latency is the delay model; nil selects simnet.DefaultLatencyModel.
	Latency *simnet.LatencyModel
	// Partition selects node placement; see PartitionMode.
	Partition PartitionMode
}

// Sharded is a multi-core discrete-event engine. It partitions the node
// population across worker shards and advances them in lockstep over
// conservative lookahead windows:
//
//	window = [W, W+L), L = minimum latency between nodes on distinct shards
//
// Because every cross-shard message takes at least L of virtual time (the
// engine floors cross-shard delays at L), no event executed inside the
// current window can require delivery inside it on another shard — shards
// process their windows in parallel and synchronize only at window
// boundaries. With PartitionAuto, nodes are placed so that low-latency
// region pairs share a shard, which widens L from the model's global minimum
// to its minimum cross-group latency (12ms -> 90ms with the default model).
//
// # Hot-path machinery
//
//   - Each shard owns a hierarchical timing wheel (see wheel.go) whose
//     finest tier is one lookahead quantum: O(1) schedule and expire, with
//     (time, seq) order restored per slot at drain time. The wheel is
//     single-writer — only its owner worker (during a window) or the
//     coordinator (between windows) touches it — so scheduling takes no lock.
//   - Membership, connections and base latency live in the embedded
//     simnet.Table, the node table the serial engine embeds too; Sharded adds
//     only each node's owner shard, indexed by the node's table ref, and
//     marshals the table's connect/disconnect notifications onto the owner
//     shards.
//   - Cross-shard sends append to a per-(src,dst) outbox cell and are merged
//     into destination wheels by the coordinator once per window barrier —
//     one lock acquisition per pair per window instead of one per message.
//     The merge happens strictly after the barrier, and merged deliveries
//     carry at >= W+L, so they always land in a window no shard has started:
//     the batched-delivery invariant.
//   - Latency sampling uses a per-shard splitmix64 generator (single-writer
//     by the same ownership rule as the wheel), eliminating the old rngMu.
//
// Timers scheduled from event code (After/AfterOn/Post while the engine is
// running) are marshalled through a small per-shard locked inbox and merged
// at the next barrier — they run no earlier than the next window, which for
// cross-shard posts matches the old engine's race window and for protocol
// timers (seconds) is far below resolution.
//
// The sharded engine is statistically — not bitwise — equivalent to the
// serial reference: latency draws come from per-shard RNG streams,
// cross-shard deliveries are floored at the lookahead, Now() is quantized to
// the window start (EventTime is exact), and cross-shard tie-breaking
// depends on scheduling. Per-seed determinism is only guaranteed by the
// serial engine.
type Sharded struct {
	*simnet.Table
	start     time.Time
	nowNs     atomic.Int64 // virtual now, nanoseconds since start
	lookahead time.Duration
	qNs       int64
	part      *regionPartition // nil: hash placement

	rootMu  sync.Mutex
	rootRNG *rand.Rand

	// shardOf is each node's owner shard, indexed by its table ref; written
	// only while the engine is idle (AddNode/Pin contract).
	shardOf []int32

	shards  []*shard
	running bool // set around RunUntil; routes event-time timers via inboxes

	// m is the telemetry handle resolved at construction; nil (metrics
	// never enabled) keeps every hot path at a single branch.
	m *engineMetrics

	// tracer records request spans when set; startNs caches
	// start.UnixNano() for span stamping.
	tracer  *otrace.Tracer
	startNs int64
}

// outCell buffers one (src,dst) shard pair's in-window sends.
type outCell struct {
	mu  sync.Mutex
	evs []sev
}

type shard struct {
	w   wheel
	eng *Sharded

	// inbox receives timer marshals from event code on any shard; merged
	// into the wheel by the coordinator at window boundaries.
	inMu  sync.Mutex
	inbox []sev

	// out[d] buffers sends from this shard to shard d within one window.
	out []outCell

	rng uint64 // splitmix64 state for latency sampling

	delivered atomic.Uint64
	dropped   atomic.Uint64

	met    shardMetrics
	procNs atomic.Int64 // this window's processing time (instrumented runs)

	nextU  int64 // scratch: this shard's next slot (or bound), set by earliest()
	exactU bool  // scratch: nextU is an exact slot, not a coarse bound
	hasU   bool

	// curAtNs is the exact virtual time of the event this shard is
	// executing; curIn is its trace context when it is a traced delivery.
	// Both are single-goroutine state: written in exec and read only by
	// event code running on this shard (EventTime/InboundCtx).
	curAtNs int64
	curIn   otrace.Ctx

	// drain is the reusable slot-drain heap; see processWindow.
	drain []sev
}

// NewSharded creates a sharded engine starting at the given virtual time
// with the given seed. NewRand derives the same labelled streams as the
// serial engine for the same seed, so world construction is identical
// across engines.
func NewSharded(start time.Time, seed int64, cfg ShardedConfig) *Sharded {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	s := &Sharded{
		start:   start,
		rootRNG: rand.New(rand.NewSource(seed)),
		shards:  make([]*shard, cfg.Shards),
	}
	s.Table = simnet.NewTable(cfg.Latency, s.notify)
	lm := s.Latency()
	if cfg.Partition == PartitionAuto {
		s.part = planPartition(lm, cfg.Shards)
	}
	// The synchronization window is the minimum latency of any cross-shard
	// region pair: anything longer could deliver a cross-shard message into
	// a window its destination has already processed.
	la := lm.Min()
	if s.part != nil {
		la = s.part.lookahead
	}
	if la <= 0 {
		la = time.Millisecond
	}
	s.lookahead, s.qNs = la, int64(la)
	s.m = engMetrics.Load()
	s.startNs = start.UnixNano()
	for i := range s.shards {
		sh := &shard{
			eng: s,
			rng: uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(i+1),
			out: make([]outCell, cfg.Shards),
			met: newShardMetrics(s.m, i),
		}
		sh.w.init(s.qNs)
		s.shards[i] = sh
	}
	return s
}

// ShardedFactory adapts NewSharded to the workload.Config.NewEngine hook.
func ShardedFactory(shards int) func(start time.Time, seed int64) Engine {
	return func(start time.Time, seed int64) Engine {
		return NewSharded(start, seed, ShardedConfig{Shards: shards})
	}
}

// Shards returns the worker shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Lookahead returns the conservative synchronization window.
func (s *Sharded) Lookahead() time.Duration { return s.lookahead }

// Now returns the current virtual time (the current window start while the
// engine is running).
func (s *Sharded) Now() time.Time { return s.start.Add(time.Duration(s.nowNs.Load())) }

// SetTracer installs the span recorder (nil disables tracing). Call before
// the first Run.
func (s *Sharded) SetTracer(t *otrace.Tracer) { s.tracer = t }

// Tracer returns the installed span recorder.
func (s *Sharded) Tracer() *otrace.Tracer { return s.tracer }

// EventTime returns the exact virtual time of the event currently executing
// for id — unlike Now, which is quantized to the window start. Call only
// from event code running for id; outside a run it falls back to Now.
func (s *Sharded) EventTime(id NodeID) time.Time {
	if s.running {
		if at := s.shards[s.ownerShard(id)].curAtNs; at != 0 {
			return s.start.Add(time.Duration(at))
		}
	}
	return s.Now()
}

// InboundCtx returns the trace context of the message currently being
// handled for id (zero outside HandleMessage or for untraced messages).
// Call only from event code running for id.
func (s *Sharded) InboundCtx(id NodeID) otrace.Ctx {
	return s.shards[s.ownerShard(id)].curIn
}

// NewRand derives an independent deterministic RNG labelled by name, with
// the same derivation as the serial engine. Call at build time or between
// Run calls only.
func (s *Sharded) NewRand(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	s.rootMu.Lock()
	defer s.rootMu.Unlock()
	return rand.New(rand.NewSource(s.rootRNG.Int63() ^ int64(h.Sum64())))
}

// ownerShard returns the shard responsible for a node's events; unknown
// nodes map to the control shard.
func (s *Sharded) ownerShard(id NodeID) int {
	if r, ok := s.Ref(id); ok {
		return int(s.shardOf[r])
	}
	return 0
}

// schedTimer routes a timer event: straight into the target wheel while the
// engine is idle (only the driver goroutine is live), via the target's
// locked inbox from event code — the coordinator merges inboxes at the next
// barrier, so the function runs no earlier than the next window.
func (s *Sharded) schedTimer(shardIdx int, atNs int64, fn func()) {
	sh := s.shards[shardIdx]
	if !s.running {
		sh.w.schedule(sev{atNs: atNs, fn: fn})
		return
	}
	sh.inMu.Lock()
	sh.inbox = append(sh.inbox, sev{atNs: atNs, fn: fn})
	sh.inMu.Unlock()
}

// After schedules fn after d of virtual time on the control shard.
func (s *Sharded) After(d time.Duration, fn func()) {
	s.schedTimer(0, s.nowNs.Load()+int64(d), fn)
}

// At schedules fn at an absolute virtual time (clamped to now) on the
// control shard.
func (s *Sharded) At(t time.Time, fn func()) {
	at := int64(t.Sub(s.start))
	if now := s.nowNs.Load(); at < now {
		at = now
	}
	s.schedTimer(0, at, fn)
}

// AfterOn schedules fn after d of virtual time on the shard owning id.
func (s *Sharded) AfterOn(id NodeID, d time.Duration, fn func()) {
	s.schedTimer(s.ownerShard(id), s.nowNs.Load()+int64(d), fn)
}

// Post schedules fn as soon as possible on the shard owning id.
func (s *Sharded) Post(id NodeID, fn func()) {
	s.schedTimer(s.ownerShard(id), s.nowNs.Load(), fn)
}

// AddNode registers a node: latency-aware region placement under
// PartitionAuto, ID-hash placement otherwise. Call at build time or between
// Run calls, never from event code.
func (s *Sharded) AddNode(id NodeID, addr string, region Region, maxConns int, h Handler) error {
	if err := s.Table.AddNode(id, addr, region, maxConns, h); err != nil {
		return err
	}
	var shard int32
	if s.part != nil {
		shard = s.part.shardFor(region, len(s.shards))
	} else {
		shard = hashShard(id, len(s.shards))
	}
	s.shardOf = append(s.shardOf, shard)
	return nil
}

// Pin moves a node to the control shard. Pin right after AddNode, before
// any event for the node is scheduled.
func (s *Sharded) Pin(id NodeID) {
	if r, ok := s.Ref(id); ok {
		s.shardOf[r] = 0
	}
}

// notify runs a connection change's handler callback as an event on the
// owner shard of the node that hears of it.
func (s *Sharded) notify(node, peer simnet.NodeRef, up bool) {
	h, p := s.Handler(node), s.ID(peer)
	var fn func()
	if up {
		fn = func() { h.PeerConnected(p) }
	} else {
		fn = func() { h.PeerDisconnected(p) }
	}
	s.schedTimer(int(s.shardOf[node]), s.nowNs.Load(), fn)
}

// u01 draws the next uniform [0,1) latency jitter from the shard's
// splitmix64 stream. Single-writer: the shard's own worker during a run,
// the driver goroutine while idle.
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

// Send schedules delivery of msg after the modelled latency. Same-shard
// deliveries go straight into the shard's wheel with the exact sampled
// delay; cross-shard deliveries are floored at the lookahead and buffered
// in the (src,dst) outbox cell, which the coordinator merges into the
// destination wheel at the window barrier — so they always land in a window
// the destination has not started.
func (s *Sharded) Send(from, to NodeID, msg any) error {
	return s.send(from, to, msg, otrace.Ctx{}, "")
}

// SendTraced is Send carrying a trace context: the hop from send to delivery
// is recorded as a span and the context is exposed to the receiving handler
// via InboundCtx. Timing and RNG draws are identical to Send; cross-shard
// lookahead flooring is surfaced as the hop span's QueueNs.
func (s *Sharded) SendTraced(tc otrace.Ctx, hop string, from, to NodeID, msg any) error {
	return s.send(from, to, msg, tc, hop)
}

func (s *Sharded) send(from, to NodeID, msg any, tc otrace.Ctx, hop string) error {
	r, err := s.Route(from, to)
	if err != nil {
		return err
	}
	fromShard, toShard := s.shardOf[r.From], s.shardOf[r.To]
	sh := s.shards[fromShard]
	delay := int64(float64(r.Base) * (1 + sh.u01()*s.Latency().JitterFrac))
	if s.m != nil {
		s.m.sends.Inc()
		if fromShard != toShard {
			s.m.cross.Inc()
		}
	}
	// Anchor the delivery at the sender's exact event time, not the window
	// start: sends happen inside the sender's event code, on its owner shard
	// (the affinity rule), so curAtNs is the precise virtual send time. A
	// window-start anchor would deliver up to one lookahead early — before
	// the send itself for events late in the window — reordering same-node
	// deliveries against virtual time and diverging from the serial engine's
	// exact now+delay semantics.
	sendNs := s.nowNs.Load()
	if s.running && sh.curAtNs != 0 {
		sendNs = sh.curAtNs
	}
	e := sev{atNs: sendNs + delay, msg: msg, from: r.From, to: r.To, epoch: r.Epoch}
	if s.tracer != nil && tc.Sampled() {
		e.tr = &otrace.HopRef{Ctx: tc, Name: hop, SendNs: s.startNs + sendNs}
	}
	if fromShard == toShard {
		// Affinity rule: event-time sends execute on from's owner shard, so
		// this is the single-writer wheel of the running goroutine (or any
		// wheel, while idle).
		s.shards[toShard].w.schedule(e)
		return nil
	}
	if delay < s.qNs {
		// Conservative lookahead floor: the delivery must land in a window
		// the destination has not started. sendNs >= the window start, so
		// sendNs+qNs clears the current window's end.
		e.atNs = sendNs + s.qNs
		if e.tr != nil {
			e.tr.QueueNs = s.qNs - delay
		}
	}
	if !s.running {
		s.shards[toShard].w.schedule(e)
		return nil
	}
	cell := &sh.out[toShard]
	cell.mu.Lock()
	cell.evs = append(cell.evs, e)
	cell.mu.Unlock()
	return nil
}

// exec runs one drained event on its owner shard's goroutine.
func (sh *shard) exec(e *sev) {
	sh.curAtNs = e.atNs
	if e.fn != nil {
		e.fn()
		return
	}
	s := sh.eng
	if !s.Deliverable(e.from, e.to, e.epoch) {
		sh.dropped.Add(1)
		if e.tr != nil {
			s.tracer.RecordHop(e.tr, s.ID(e.to).String(), s.startNs+e.atNs, true)
		}
		return
	}
	sh.delivered.Add(1)
	h := s.Handler(e.to)
	if e.tr != nil {
		s.tracer.RecordHop(e.tr, s.ID(e.to).String(), s.startNs+e.atNs, false)
		sh.curIn = e.tr.Ctx
		h.HandleMessage(s.ID(e.from), e.msg)
		sh.curIn = otrace.Ctx{}
		return
	}
	h.HandleMessage(s.ID(e.from), e.msg)
}

// Stats reports delivery counters.
func (s *Sharded) Stats() (delivered, dropped uint64) {
	for _, sh := range s.shards {
		delivered += sh.delivered.Load()
		dropped += sh.dropped.Load()
	}
	return delivered, dropped
}

// Run processes events for d of virtual time.
func (s *Sharded) Run(d time.Duration) { s.RunUntil(s.Now().Add(d)) }

// mergeMailboxes drains every inbox and outbox cell into the destination
// wheels. Runs on the coordinator between windows, when all workers are at
// the barrier.
func (s *Sharded) mergeMailboxes() {
	for _, sh := range s.shards {
		sh.inMu.Lock()
		in := sh.inbox
		sh.inbox = in[:0]
		sh.inMu.Unlock()
		for _, e := range in {
			sh.w.schedule(e)
		}
		for di := range sh.out {
			cell := &sh.out[di]
			cell.mu.Lock()
			evs := cell.evs
			cell.evs = evs[:0]
			cell.mu.Unlock()
			dw := &s.shards[di].w
			for _, e := range evs {
				dw.schedule(e)
			}
		}
	}
}

// earliest finds the global minimum pending slot and the exact earliest
// event time within it, marking which shards have work in that slot. Runs
// between windows, when all workers are idle. deadNs bounds the current
// RunUntil; when every pending event provably lies past it, earliest reports
// "nothing to run" WITHOUT resolving any coarse bound.
//
// Shards report their next slot via peekSlot, which never moves the wheel
// base; a shard whose earliest event lies beyond its current page reports a
// coarse lower bound instead. Bounds at the global minimum are resolved by
// jump() — safe precisely because the bound IS the global minimum, so no
// base ever advances past a slot another shard (or a pending cross-shard
// merge) still needs. Letting each shard advance eagerly to its own next
// slot would clamp later merges into an idle shard's far future.
//
// The deadline guard exists for the same clamping reason, across runs
// instead of across shards: jumping a base toward a far-future timer (a DHT
// refresh, say) during a run that ends long before it would leave the base
// parked in the far future. Events scheduled after the run — idle sends, the
// next run's traffic — would be clamped by place() into that far slot, and
// if another shard held a still-earlier far slot they would never come up as
// the global minimum: silently lost, delivered neither now nor at the far
// time. Leaving bounds unresolved keeps every base at or before the last
// deadline actually run, so post-run schedules are never clamped.
func (s *Sharded) earliest(deadNs int64) (slot int64, minAt int64, any bool) {
	instrumented := s.m != nil
	for _, sh := range s.shards {
		u, exact, ok := sh.w.peekSlot()
		sh.hasU, sh.nextU, sh.exactU = ok, u, exact
		if instrumented {
			sh.met.depth.Set(float64(sh.w.pending))
		}
	}
	for {
		any = false
		for _, sh := range s.shards {
			if sh.hasU && (!any || sh.nextU < slot) {
				slot, any = sh.nextU, true
			}
		}
		if !any {
			return 0, 0, false
		}
		if slot > deadNs/s.qNs {
			// Slot slot starts at slot*qNs > deadNs: nothing pending can run
			// in this RunUntil, and resolving the bound would move a base
			// past the deadline (see the deadline guard note above).
			return 0, 0, false
		}
		resolved := true
		for _, sh := range s.shards {
			if sh.hasU && !sh.exactU && sh.nextU == slot {
				sh.w.jump()
				u, exact, ok := sh.w.peekSlot()
				sh.hasU, sh.nextU, sh.exactU = ok, u, exact
				resolved = false
			}
		}
		if resolved {
			break
		}
	}
	first := true
	for _, sh := range s.shards {
		if !sh.hasU || sh.nextU != slot {
			continue
		}
		if at := sh.w.minIn(slot); first || at < minAt {
			minAt = at
			first = false
		}
	}
	return slot, minAt, true
}

// RunUntil processes events until every shard's wheel is drained past
// deadline. The clock is left at deadline. Only one RunUntil may be active
// at a time, and it must not be called from event code.
func (s *Sharded) RunUntil(deadline time.Time) {
	deadNs := int64(deadline.Sub(s.start))
	type win struct {
		u, end    int64
		inclusive bool
	}
	nsh := len(s.shards)
	goChs := make([]chan win, nsh)
	arrive := make(chan struct{}, nsh)
	instrumented := s.m != nil
	var wg sync.WaitGroup
	for i := 0; i < nsh; i++ {
		goChs[i] = make(chan win)
		wg.Add(1)
		go func(sh *shard, ch chan win) {
			defer wg.Done()
			for c := range ch {
				if instrumented {
					var sw obs.Stopwatch
					sw.Start()
					sh.processWindow(c.u, c.end, c.inclusive)
					sh.procNs.Store(sw.Elapsed().Nanoseconds())
				} else {
					sh.processWindow(c.u, c.end, c.inclusive)
				}
				arrive <- struct{}{}
			}
		}(s.shards[i], goChs[i])
	}
	s.running = true
	for {
		s.mergeMailboxes()
		u, m, ok := s.earliest(deadNs)
		if !ok || m > deadNs {
			break
		}
		W := m
		if now := s.nowNs.Load(); W < now {
			W = now
		}
		s.nowNs.Store(W)
		end := (u + 1) * s.qNs
		inclusive := false
		if end > deadNs {
			// Final window: include events scheduled exactly at the
			// deadline, matching the serial engine's RunUntil semantics.
			end = deadNs
			inclusive = true
		}
		var window obs.Stopwatch
		if instrumented {
			window.Start()
		}
		// Only shards with work in this slot are signalled; idle shards
		// stay parked at the barrier.
		busy := 0
		for i, sh := range s.shards {
			if sh.hasU && sh.nextU == u {
				goChs[i] <- win{u: u, end: end, inclusive: inclusive}
				busy++
			}
		}
		for i := 0; i < busy; i++ {
			<-arrive
		}
		if instrumented {
			// Barrier wait per shard: how long it sat idle after finishing
			// its own window while the slowest shard caught up.
			wall := window.Elapsed().Nanoseconds()
			for _, sh := range s.shards {
				if !sh.hasU || sh.nextU != u {
					continue
				}
				if wait := wall - sh.procNs.Load(); wait > 0 {
					sh.met.barrier.Observe(float64(wait) / 1e9)
				}
			}
			s.m.windows.Inc()
		}
	}
	if s.nowNs.Load() < deadNs {
		s.nowNs.Store(deadNs)
	}
	for i := 0; i < nsh; i++ {
		close(goChs[i])
	}
	wg.Wait()
	s.running = false
}

// processWindow drains this shard's slot u, running events with at < end
// (at <= end when inclusive) in (time, seq) order. The slot is drained
// through a local binary heap rather than a one-shot sort: same-slot inserts
// made by the events themselves (short same-shard sends, same-time chains)
// are pushed in at O(log k) each, instead of re-sorting the remainder per
// insert — which degraded to quadratic memmove traffic on slots where most
// events schedule a sub-quantum follow-up. Heap pop order is the same
// (time, seq) total order the serial engine's heap provides, so the drain
// semantics are unchanged.
func (sh *shard) processWindow(u, end int64, inclusive bool) {
	n := uint64(0)
	w := &sh.w
	h := sh.drain[:0]
	if batch := w.takeSlot(u); len(batch) != 0 {
		h = append(h, batch...)
		w.recycle(batch)
		heapifySev(h)
	}
	for len(h) > 0 {
		e := h[0]
		if e.atNs > end || (!inclusive && e.atNs == end) {
			// The heap minimum is past the deadline, so everything still
			// queued is too. Leave it for the next RunUntil; order within
			// the slot backing does not matter, the next drain re-heapifies.
			w.putBack(u, h)
			h = h[:0]
			break
		}
		h = popSev(h)
		sh.exec(&e)
		n++
		if w.slotOccupied(u) {
			// Events inserted into the slot being drained: fold them into
			// the heap so they run in (time, seq) position.
			fresh := w.takeSlot(u)
			for _, fe := range fresh {
				h = pushSev(h, fe)
			}
			w.recycle(fresh)
		}
	}
	sh.drain = h[:0]
	// Events are counted locally and flushed once per window, so the
	// instrumented event loop pays one atomic add per window, not per event.
	if n > 0 {
		sh.met.events.Add(n)
	}
}

var _ Engine = (*Sharded)(nil)
