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

// RPC message types exchanged over the simulated network. Requests name
// their sender and answers their peers by node-table ref; only provider
// records carry a PeerInfo.
type (
	findNodeReq struct {
		RPCID  uint64
		Target simnet.NodeID
		From   simnet.NodeRef
		Server bool // the sender is a DHT server
	}
	findNodeResp struct {
		RPCID  uint64
		Closer []simnet.NodeRef
	}
	getProvidersReq struct {
		RPCID  uint64
		Key    Key
		From   simnet.NodeRef
		Server bool
	}
	getProvidersResp struct {
		RPCID     uint64
		Providers []PeerInfo
		Closer    []simnet.NodeRef
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
	ref  simnet.NodeRef // self's node-table ref
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
// given mode (zero selects ModeServer). self must already be registered
// with net.
func New(net engine.Engine, self PeerInfo, mode Mode) *DHT {
	if mode == 0 {
		mode = ModeServer
	}
	self.Server = mode == ModeServer
	ref, ok := net.Ref(self.ID)
	if !ok {
		panic("dht: node " + self.ID.String() + " is not registered with the network")
	}
	return &DHT{
		net:     net,
		self:    self,
		ref:     ref,
		mode:    mode,
		rt:      NewRoutingTable(net.Table, ref, DefaultK),
		provs:   NewProviderStore(DefaultProviderTTL),
		pending: make(map[uint64]*pendingRPC),
	}
}

// Self returns the local peer info.
func (d *DHT) Self() PeerInfo { return d.self }

// Observe records a peer we learned about (e.g. via an inbound connection),
// feeding the routing table. A peer unknown to the network is ignored.
func (d *DHT) Observe(p PeerInfo) {
	if r, ok := d.net.Ref(p.ID); ok {
		d.rt.Add(r, p.Server)
	}
}

// HandleMessage processes a DHT RPC delivered by the network. It reports
// whether the message was a DHT message. Requests name their sender by ref,
// so the sender's ID goes unused.
func (d *DHT) HandleMessage(_ simnet.NodeID, msg any) bool {
	switch m := msg.(type) {
	case findNodeReq:
		d.rt.Add(m.From, m.Server)
		if d.mode != ModeServer {
			return true // clients do not answer
		}
		d.reply(m.From, findNodeResp{RPCID: m.RPCID, Closer: d.closer(m.Target)})
		return true
	case getProvidersReq:
		d.rt.Add(m.From, m.Server)
		if d.mode != ModeServer {
			return true
		}
		resp := getProvidersResp{
			RPCID:     m.RPCID,
			Providers: d.provs.Get(m.Key, d.net.Now()),
			Closer:    d.closer(m.Key.AsNodeID()),
		}
		d.reply(m.From, resp)
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

// closer is the Closer list of an answer: the k peers nearest target, in a
// slice of its own, since it travels in the reply.
func (d *DHT) closer(target simnet.NodeID) []simnet.NodeRef {
	return d.rt.AppendClosest(make([]simnet.NodeRef, 0, DefaultK), target, DefaultK)
}

func (d *DHT) reply(to simnet.NodeRef, msg any) {
	// Replies inherit the inbound request's trace context so the response hop
	// nests under the caller's dht.rpc span. The connection may already be
	// gone; replies are best-effort.
	_ = d.net.SendRef(d.net.InboundCtx(d.self.ID), "dht.resp", d.ref, to, msg)
}

// now returns the exact virtual time of the event currently running for this
// node.
func (d *DHT) now() time.Time { return d.net.EventTime(d.self.ID) }

// dial ensures a connection to p exists. DHT RPCs ride on real connections;
// connections opened during searches persist, which is the mechanism that
// lets passive monitors see DHT clients (Sec. IV-C).
func (d *DHT) dial(p simnet.NodeRef) bool {
	if d.net.ConnectedRef(d.ref, p) {
		return true
	}
	return d.net.ConnectRef(d.ref, p) == nil
}

// rpcSpan opens a dht.rpc span under tc (nil handle when untraced), keyed by
// the queried peer: one lookup step issues several RPCs in one event, and the
// peer is what tells their span IDs apart.
func (d *DHT) rpcSpan(tc otrace.Ctx, peer simnet.NodeRef) *otrace.SpanHandle {
	if !tc.Sampled() {
		return nil
	}
	// Async: a lookup that reaches its provider target finishes without
	// awaiting in-flight RPCs.
	return d.net.Tracer().StartKeyed(tc, "dht.rpc", d.self.ID.String(), d.net.ID(peer).String(), d.now()).MarkAsync()
}

// sendFindNode and sendGetProviders query peer p, which must be a DHT
// server: every peer they are called with comes from a routing table or
// from a server's answer, and both hold servers only.
func (d *DHT) sendFindNode(tc otrace.Ctx, p simnet.NodeRef, target simnet.NodeID, cb func(findNodeResp, bool)) {
	if !d.dial(p) {
		cb(findNodeResp{}, false)
		return
	}
	d.nextRPC++
	id := d.nextRPC
	span := d.rpcSpan(tc, p)
	d.pending[id] = &pendingRPC{onFindNode: cb, span: span}
	d.rpcsSent++
	req := findNodeReq{RPCID: id, Target: target, From: d.ref, Server: d.self.Server}
	if err := d.net.SendRef(span.Ctx(), "dht.req", d.ref, p, req); err != nil {
		delete(d.pending, id)
		span.EndDropped(d.now())
		cb(findNodeResp{}, false)
		return
	}
	d.expireAfter(id)
}

func (d *DHT) sendGetProviders(tc otrace.Ctx, p simnet.NodeRef, key Key, cb func(getProvidersResp, bool)) {
	if !d.dial(p) {
		cb(getProvidersResp{}, false)
		return
	}
	d.nextRPC++
	id := d.nextRPC
	span := d.rpcSpan(tc, p)
	d.pending[id] = &pendingRPC{onGetProviders: cb, span: span}
	d.rpcsSent++
	req := getProvidersReq{RPCID: id, Key: key, From: d.ref, Server: d.self.Server}
	if err := d.net.SendRef(span.Ctx(), "dht.req", d.ref, p, req); err != nil {
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
	onDone     func(closest []simnet.NodeRef, providers []PeerInfo)
}

// lookupCand is one candidate with its queried mark inline. d is the first 8
// bytes of its XOR distance to the target, big-endian: it orders cand by
// itself unless two candidates share those bytes. A candidate carries no
// server flag: every one comes from a routing table, or from a server's
// answer drawn from its routing table, and routing tables hold servers only.
type lookupCand struct {
	d       uint64
	ref     simnet.NodeRef
	queried bool
}

// newLookup starts a lookup for target with the local k closest peers as
// its first candidates.
func (d *DHT) newLookup(target simnet.NodeID) *lookup {
	d.lookupsStarted++
	l := &lookup{d: d, target: target}
	l.addCandidates(d.rt.AppendClosest(make([]simnet.NodeRef, 0, DefaultK), target, DefaultK))
	return l
}

// addCandidates inserts the peers not seen before into cand at their
// distance rank, found by binary search on d. Only on equal keys are the refs
// compared — equal refs are a peer already seen, the common case — and,
// rarely, the full distances.
func (l *lookup) addCandidates(peers []simnet.NodeRef) {
	tab := l.d.net.Table
	t8 := binary.BigEndian.Uint64(l.target[0:8])
	for _, p := range peers {
		if p == l.d.ref {
			continue
		}
		d := t8 ^ tab.Key(p)
		lo, hi := 0, len(l.cand)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			c := &l.cand[m]
			order := cmp.Compare(c.d, d)
			if order == 0 {
				if c.ref == p {
					break // seen before
				}
				order = simnet.DistanceCompare(l.target, tab.ID(c.ref), tab.ID(p))
			}
			if order < 0 {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == hi {
			l.cand = slices.Insert(l.cand, lo, lookupCand{d: d, ref: p})
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
		if !kClosest[i].queried {
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
		if c.queried {
			continue
		}
		// Mark before sending: failed sends re-enter step() synchronously,
		// and synchronous re-entry never inserts into cand (only a response
		// does), so the write through c stays visible to the recursive scan.
		c.queried = true
		l.inflight++
		peer := c.ref
		if l.providers {
			l.d.sendGetProviders(l.tc, peer, l.key, func(resp getProvidersResp, ok bool) {
				l.inflight--
				if ok {
					l.d.rt.Add(peer, true)
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
					l.d.rt.Add(peer, true)
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
	closest := make([]simnet.NodeRef, len(cands))
	for i := range cands {
		closest[i] = cands[i].ref
	}
	provs := make([]PeerInfo, 0, len(l.foundProvs))
	for _, p := range l.foundProvs {
		provs = append(provs, p)
	}
	SortByDistance(provs, l.target)
	l.onDone(closest, provs)
}

// FindClosest runs an iterative lookup for the k peers closest to target and
// invokes done with the result, nearest first. Newly discovered peers enter
// the routing table; connections opened along the way persist.
func (d *DHT) FindClosest(target simnet.NodeID, done func([]simnet.NodeRef)) {
	l := d.newLookup(target)
	l.onDone = func(closest []simnet.NodeRef, _ []PeerInfo) { done(closest) }
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
	l := d.newLookup(key.AsNodeID())
	l.key = key
	l.providers = true
	l.wantProvs = want
	l.foundProvs = make(map[simnet.NodeID]PeerInfo)
	l.onDone = func(_ []simnet.NodeRef, provs []PeerInfo) { done(provs) }
	if tc.Sampled() {
		// Async: the requester may resolve from a broadcast HAVE while the
		// provider search is still running.
		l.span = d.net.Tracer().Start(tc, "dht.lookup", d.self.ID.String(), d.now()).MarkAsync()
		l.tc = l.span.Ctx()
	}
	l.step()
}

// Provide announces the local node as a provider for key: it locates the k
// closest servers and sends them ADD_PROVIDER records. done (optional) fires
// when the announcement finishes.
func (d *DHT) Provide(key Key, done func()) {
	d.FindClosest(key.AsNodeID(), func(closest []simnet.NodeRef) {
		for _, p := range closest {
			if !d.dial(p) {
				continue
			}
			_ = d.net.SendRef(otrace.Ctx{}, "", d.ref, p, addProviderReq{Key: key, Provider: d.self})
		}
		if done != nil {
			done()
		}
	})
}

// Bootstrap seeds the routing table with the given peers and performs a
// self-lookup, populating nearby buckets. Peers unknown to the network are
// skipped.
func (d *DHT) Bootstrap(peers []PeerInfo, done func()) {
	for _, p := range peers {
		if r, ok := d.net.Ref(p.ID); ok {
			d.rt.Add(r, p.Server)
			d.dial(r)
		}
	}
	d.FindClosest(d.self.ID, func([]simnet.NodeRef) {
		if done != nil {
			done()
		}
	})
}

// Refresh performs the periodic routing-table refresh: a self-lookup plus a
// lookup for a random target.
func (d *DHT) Refresh(random simnet.NodeID) {
	d.FindClosest(d.self.ID, func([]simnet.NodeRef) {})
	d.FindClosest(random, func([]simnet.NodeRef) {})
}

// Stats reports lookup/RPC counters.
func (d *DHT) Stats() (lookups, rpcs, timeouts uint64) {
	return d.lookupsStarted, d.rpcsSent, d.rpcsTimedOut
}
