package dht

import (
	"cmp"
	"encoding/binary"
	"slices"
	"time"

	"bitswapmon/internal/engine"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
)

// Mode selects DHT participation.
type Mode int

// DHT participation modes (Sec. III-A): servers store records and answer
// RPCs; clients only query and are invisible to crawlers.
const (
	ModeServer Mode = iota + 1
	ModeClient
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeServer:
		return "server"
	case ModeClient:
		return "client"
	default:
		return "unknown"
	}
}

// DefaultAlpha is the lookup concurrency factor.
const DefaultAlpha = 3

// DefaultRPCTimeout is how long a single RPC may take before it is counted
// as failed.
const DefaultRPCTimeout = 2 * time.Second

// RPC message types exchanged over the simulated network.
type (
	findNodeReq struct {
		RPCID  uint64
		Target simnet.NodeID
		From   PeerInfo
	}
	findNodeResp struct {
		RPCID  uint64
		Closer []PeerInfo
	}
	getProvidersReq struct {
		RPCID uint64
		Key   Key
		From  PeerInfo
	}
	getProvidersResp struct {
		RPCID     uint64
		Providers []PeerInfo
		Closer    []PeerInfo
	}
	addProviderReq struct {
		Key      Key
		Provider PeerInfo
	}
)

type pendingRPC struct {
	onFindNode     func(findNodeResp, bool)
	onGetProviders func(getProvidersResp, bool)
	span           *otrace.SpanHandle // dht.rpc span; nil when untraced
}

// DHT is one node's view of the Kademlia overlay. It is driven entirely by
// the simnet event loop (no goroutines): RPC replies and timeouts arrive as
// events, lookups are callback state machines.
type DHT struct {
	net  engine.Engine
	self PeerInfo
	mode Mode

	rt      *RoutingTable
	provs   *ProviderStore
	nextRPC uint64
	pending map[uint64]*pendingRPC

	// stats
	lookupsStarted uint64
	rpcsSent       uint64
	rpcsTimedOut   uint64
}

// New creates a DHT for the node identified by self, participating in the
// given mode (zero selects ModeServer).
func New(net engine.Engine, self PeerInfo, mode Mode) *DHT {
	if mode == 0 {
		mode = ModeServer
	}
	self.Server = mode == ModeServer
	return &DHT{
		net:     net,
		self:    self,
		mode:    mode,
		rt:      NewRoutingTable(self.ID, DefaultK),
		provs:   NewProviderStore(DefaultProviderTTL),
		pending: make(map[uint64]*pendingRPC),
	}
}

// Self returns the local peer info.
func (d *DHT) Self() PeerInfo { return d.self }

// Mode returns the participation mode.
func (d *DHT) Mode() Mode { return d.mode }

// RoutingTable exposes the routing table (read-mostly; used by the crawler
// responder and by diagnostics).
func (d *DHT) RoutingTable() *RoutingTable { return d.rt }

// Observe records a peer we learned about (e.g. via an inbound connection),
// feeding the routing table.
func (d *DHT) Observe(p PeerInfo) { d.rt.Add(p) }

// HandleMessage processes a DHT RPC delivered by the network. It reports
// whether the message was a DHT message.
func (d *DHT) HandleMessage(from simnet.NodeID, msg any) bool {
	switch m := msg.(type) {
	case findNodeReq:
		d.rt.Add(m.From)
		if d.mode != ModeServer {
			return true // clients do not answer
		}
		closer := d.rt.Closest(m.Target, DefaultK)
		d.reply(from, findNodeResp{RPCID: m.RPCID, Closer: closer})
		return true
	case getProvidersReq:
		d.rt.Add(m.From)
		if d.mode != ModeServer {
			return true
		}
		resp := getProvidersResp{
			RPCID:     m.RPCID,
			Providers: d.provs.Get(m.Key, d.net.Now()),
			Closer:    d.rt.Closest(m.Key.AsNodeID(), DefaultK),
		}
		d.reply(from, resp)
		return true
	case addProviderReq:
		if d.mode == ModeServer {
			d.provs.Add(m.Key, m.Provider, d.net.Now())
		}
		return true
	case findNodeResp:
		if p, ok := d.pending[m.RPCID]; ok && p.onFindNode != nil {
			delete(d.pending, m.RPCID)
			p.span.End(d.now())
			p.onFindNode(m, true)
		}
		return true
	case getProvidersResp:
		if p, ok := d.pending[m.RPCID]; ok && p.onGetProviders != nil {
			delete(d.pending, m.RPCID)
			p.span.End(d.now())
			p.onGetProviders(m, true)
		}
		return true
	default:
		return false
	}
}

func (d *DHT) reply(to simnet.NodeID, msg any) {
	// Replies inherit the inbound request's trace context so the response hop
	// nests under the caller's dht.rpc span. The connection may already be
	// gone; replies are best-effort.
	_ = d.net.SendTraced(d.net.InboundCtx(d.self.ID), "dht.resp", d.self.ID, to, msg)
}

// now returns the exact virtual time of the event currently running for this
// node.
func (d *DHT) now() time.Time { return d.net.EventTime(d.self.ID) }

// dial ensures a connection to p exists. DHT RPCs ride on real connections;
// connections opened during searches persist, which is the mechanism that
// lets passive monitors see DHT clients (Sec. IV-C).
func (d *DHT) dial(p PeerInfo) bool {
	if d.net.Connected(d.self.ID, p.ID) {
		return true
	}
	return d.net.Connect(d.self.ID, p.ID) == nil
}

// rpcSpan opens a dht.rpc span under tc (nil handle when untraced), keyed by
// the queried peer: one lookup step issues several RPCs in one event, and the
// peer is what tells their span IDs apart.
func (d *DHT) rpcSpan(tc otrace.Ctx, peer simnet.NodeID) *otrace.SpanHandle {
	if !tc.Sampled() {
		return nil
	}
	// Async: a lookup that reaches its provider target finishes without
	// awaiting in-flight RPCs.
	return d.net.Tracer().StartKeyed(tc, "dht.rpc", d.self.ID.String(), peer.String(), d.now()).MarkAsync()
}

func (d *DHT) sendFindNode(tc otrace.Ctx, p PeerInfo, target simnet.NodeID, cb func(findNodeResp, bool)) {
	if !p.Server || !d.dial(p) {
		cb(findNodeResp{}, false)
		return
	}
	d.nextRPC++
	id := d.nextRPC
	span := d.rpcSpan(tc, p.ID)
	d.pending[id] = &pendingRPC{onFindNode: cb, span: span}
	d.rpcsSent++
	if err := d.net.SendTraced(span.Ctx(), "dht.req", d.self.ID, p.ID, findNodeReq{RPCID: id, Target: target, From: d.self}); err != nil {
		delete(d.pending, id)
		span.EndDropped(d.now())
		cb(findNodeResp{}, false)
		return
	}
	d.expireAfter(id)
}

func (d *DHT) sendGetProviders(tc otrace.Ctx, p PeerInfo, key Key, cb func(getProvidersResp, bool)) {
	if !p.Server || !d.dial(p) {
		cb(getProvidersResp{}, false)
		return
	}
	d.nextRPC++
	id := d.nextRPC
	span := d.rpcSpan(tc, p.ID)
	d.pending[id] = &pendingRPC{onGetProviders: cb, span: span}
	d.rpcsSent++
	if err := d.net.SendTraced(span.Ctx(), "dht.req", d.self.ID, p.ID, getProvidersReq{RPCID: id, Key: key, From: d.self}); err != nil {
		delete(d.pending, id)
		span.EndDropped(d.now())
		cb(getProvidersResp{}, false)
		return
	}
	d.expireAfter(id)
}

func (d *DHT) expireAfter(id uint64) {
	d.net.AfterOn(d.self.ID, DefaultRPCTimeout, func() {
		p, ok := d.pending[id]
		if !ok {
			return
		}
		delete(d.pending, id)
		d.rpcsTimedOut++
		p.span.EndDropped(d.now())
		if p.onFindNode != nil {
			p.onFindNode(findNodeResp{}, false)
		}
		if p.onGetProviders != nil {
			p.onGetProviders(getProvidersResp{}, false)
		}
	})
}

// lookup is the iterative Kademlia search state machine shared by
// FindClosest and FindProviders.
type lookup struct {
	d         *DHT
	target    simnet.NodeID
	key       Key
	providers bool // query providers instead of find-node
	wantProvs int
	span      *otrace.SpanHandle // dht.lookup span; nil when untraced
	tc        otrace.Ctx         // span's context, parent of per-RPC spans

	// cand is every peer seen so far except self, nearest to target first,
	// each once: it is the lookup's seen set as well as its work list.
	cand     []lookupCand
	inflight int

	foundProvs map[simnet.NodeID]PeerInfo
	finished   bool
	onDone     func(closest []PeerInfo, providers []PeerInfo)
}

// lookupCand is one candidate with its queried mark inline. d is the first 8
// bytes of its XOR distance to the target, big-endian: it orders cand by
// itself unless two candidates share those bytes.
type lookupCand struct {
	d uint64
	PeerInfo
	queried bool
}

// addCandidates inserts the peers not seen before into cand at their
// distance rank, found by binary search on d. Only on equal keys are the IDs
// compared — equal IDs are a peer already seen, the common case — and,
// rarely, the full distances.
func (l *lookup) addCandidates(peers []PeerInfo) {
	t8 := binary.BigEndian.Uint64(l.target[0:8])
	for _, p := range peers {
		if p.ID == l.d.self.ID {
			continue
		}
		d := t8 ^ binary.BigEndian.Uint64(p.ID[0:8])
		lo, hi := 0, len(l.cand)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			c := &l.cand[m]
			order := cmp.Compare(c.d, d)
			if order == 0 {
				if c.ID == p.ID {
					break // seen before
				}
				order = simnet.DistanceCompare(l.target, c.ID, p.ID)
			}
			if order < 0 {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == hi {
			l.cand = slices.Insert(l.cand, lo, lookupCand{d: d, PeerInfo: p})
		}
	}
}

func (l *lookup) step() {
	if l.finished {
		return
	}
	if l.providers && len(l.foundProvs) >= l.wantProvs {
		l.finish()
		return
	}
	cands := l.cand
	// The lookup terminates when the k closest known peers have all been
	// queried (or failed).
	kClosest := cands
	if len(kClosest) > DefaultK {
		kClosest = kClosest[:DefaultK]
	}
	allQueried := true
	for i := range kClosest {
		if kClosest[i].Server && !kClosest[i].queried {
			allQueried = false
			break
		}
	}
	if allQueried && l.inflight == 0 {
		l.finish()
		return
	}
	for i := range cands {
		if l.inflight >= DefaultAlpha {
			break
		}
		c := &cands[i]
		if !c.Server || c.queried {
			continue
		}
		// Mark before sending: failed sends re-enter step() synchronously,
		// and synchronous re-entry never inserts into cand (only a response
		// does), so the write through c stays visible to the recursive scan.
		c.queried = true
		l.inflight++
		peer := c.PeerInfo
		if l.providers {
			l.d.sendGetProviders(l.tc, peer, l.key, func(resp getProvidersResp, ok bool) {
				l.inflight--
				if ok {
					l.d.rt.Add(peer)
					for _, prov := range resp.Providers {
						l.foundProvs[prov.ID] = prov
					}
					l.addCandidates(resp.Closer)
				}
				l.step()
			})
		} else {
			l.d.sendFindNode(l.tc, peer, l.target, func(resp findNodeResp, ok bool) {
				l.inflight--
				if ok {
					l.d.rt.Add(peer)
					l.addCandidates(resp.Closer)
				}
				l.step()
			})
		}
	}
	if l.inflight == 0 {
		// No queryable candidates remain.
		l.finish()
	}
}

func (l *lookup) finish() {
	if l.finished {
		return
	}
	l.finished = true
	l.span.End(l.d.now())
	cands := l.cand
	if len(cands) > DefaultK {
		cands = cands[:DefaultK]
	}
	closest := make([]PeerInfo, len(cands))
	for i := range cands {
		closest[i] = cands[i].PeerInfo
	}
	provs := make([]PeerInfo, 0, len(l.foundProvs))
	for _, p := range l.foundProvs {
		provs = append(provs, p)
	}
	SortByDistance(provs, l.target)
	l.onDone(closest, provs)
}

// FindClosest runs an iterative lookup for the k peers closest to target and
// invokes done with the result. Newly discovered peers enter the routing
// table; connections opened along the way persist.
func (d *DHT) FindClosest(target simnet.NodeID, done func([]PeerInfo)) {
	d.lookupsStarted++
	l := &lookup{
		d:      d,
		target: target,
		onDone: func(closest, _ []PeerInfo) { done(closest) },
	}
	l.addCandidates(d.rt.Closest(target, DefaultK))
	l.step()
}

// FindProviders searches provider records for key, stopping early once want
// providers are known (want <= 0 means exhaust the lookup). Under a sampled
// tc the whole lookup becomes a dht.lookup span with one dht.rpc child per
// GET_PROVIDERS round; a zero tc traces nothing.
func (d *DHT) FindProviders(tc otrace.Ctx, key Key, want int, done func([]PeerInfo)) {
	if want <= 0 {
		want = 1 << 30
	}
	d.lookupsStarted++
	l := &lookup{
		d:          d,
		target:     key.AsNodeID(),
		key:        key,
		providers:  true,
		wantProvs:  want,
		foundProvs: make(map[simnet.NodeID]PeerInfo),
		onDone:     func(_, provs []PeerInfo) { done(provs) },
	}
	if tc.Sampled() {
		// Async: the requester may resolve from a broadcast HAVE while the
		// provider search is still running.
		l.span = d.net.Tracer().Start(tc, "dht.lookup", d.self.ID.String(), d.now()).MarkAsync()
		l.tc = l.span.Ctx()
	}
	l.addCandidates(d.rt.Closest(l.target, DefaultK))
	l.step()
}

// Provide announces the local node as a provider for key: it locates the k
// closest servers and sends them ADD_PROVIDER records. done (optional) fires
// when the announcement finishes.
func (d *DHT) Provide(key Key, done func()) {
	d.FindClosest(key.AsNodeID(), func(closest []PeerInfo) {
		for _, p := range closest {
			if !p.Server || !d.dial(p) {
				continue
			}
			_ = d.net.Send(d.self.ID, p.ID, addProviderReq{Key: key, Provider: d.self})
		}
		if done != nil {
			done()
		}
	})
}

// Bootstrap seeds the routing table with the given peers and performs a
// self-lookup, populating nearby buckets.
func (d *DHT) Bootstrap(peers []PeerInfo, done func()) {
	for _, p := range peers {
		d.rt.Add(p)
		d.dial(p)
	}
	d.FindClosest(d.self.ID, func([]PeerInfo) {
		if done != nil {
			done()
		}
	})
}

// Refresh performs the periodic routing-table refresh: a self-lookup plus a
// lookup for a random target.
func (d *DHT) Refresh(random simnet.NodeID) {
	d.FindClosest(d.self.ID, func([]PeerInfo) {})
	d.FindClosest(random, func([]PeerInfo) {})
}

// Stats reports lookup/RPC counters.
func (d *DHT) Stats() (lookups, rpcs, timeouts uint64) {
	return d.lookupsStarted, d.rpcsSent, d.rpcsTimedOut
}
