// Package bitswap implements the Bitswap data-exchange protocol of IPFS
// (Sec. III-D of the paper): want_list broadcasts, HAVE/DONT_HAVE inventory,
// sessions, 30-second re-broadcasts, and block transfer.
//
// The content-retrieval strategy follows the paper's Fig. 1 exactly:
//
//  1. look in the local store;
//  2. create a session S(c) and broadcast WANT_HAVE c to all connected peers;
//  3. if no HAVEs arrive, search the DHT for providers P(c), connect to
//     them, and send WANT_HAVE to the newly connected peers;
//  4. send WANT_BLOCK to (some) peers in S(c);
//  5. while unresolved, periodically re-broadcast and re-search ("idle
//     looping state").
//
// All the phenomena the monitoring methodology relies on are emergent from
// this implementation: requests reach every connected peer (including
// passive monitors), re-broadcasts repeat every RebroadcastInterval, and
// requests for non-root blocks stay scoped to session peers, which is why
// monitors only observe root CIDs.
//
// Inside the engine a peer is a simnet.NodeRef: the sets of peers a want
// went to, and the want ledger, one map keyed by (peer ref, CID) for all
// peers. Sessions and the exported API keep NodeIDs.
package bitswap

import (
	"slices"
	"time"

	"bitswapmon/internal/blockstore"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

// ProviderRouter is the DHT surface the engine uses for step 3 of Fig. 1 and
// for reproviding fetched content. *dht.DHT satisfies it. FindProviders gets
// the want's trace context (zero when untraced).
type ProviderRouter interface {
	FindProviders(tc otrace.Ctx, key dht.Key, want int, done func([]dht.PeerInfo))
	Provide(key dht.Key, done func())
}

// The go-ipfs protocol constants.
const (
	// RebroadcastInterval is the idle-loop period: unresolved wants are
	// re-broadcast this often. The real client uses 30 s; the paper's 31 s
	// deduplication window is calibrated to it.
	RebroadcastInterval = 30 * time.Second
	// ProviderSearchDelay is how long to wait for HAVEs before falling
	// back to the DHT (step 3 of Fig. 1).
	ProviderSearchDelay = time.Second
	// MaxProviders bounds the DHT provider search.
	MaxProviders = 10
	// WantBlockFanout is how many session peers receive WANT_BLOCK
	// concurrently.
	WantBlockFanout = 2
)

// Config parametrises the engine.
type Config struct {
	// SendDontHave asks responders for explicit DONT_HAVE answers.
	SendDontHave bool
	// Reprovide announces fetched roots to the DHT, turning this node into
	// a provider (the caching/reproviding cornerstone of Sec. III-C, and
	// what the TPI attack tests for).
	Reprovide bool
	// GiveUpAfter abandons a want after this much time; 0 keeps wanting
	// forever (matching the real client's indefinite idle loop).
	GiveUpAfter time.Duration
	// LegacyWantBlock selects the pre-v0.5 behaviour: broadcasts carry
	// WANT_BLOCK entries instead of WANT_HAVE (no inventory mechanism).
	// Fig. 4 of the paper tracks the network-wide transition between the
	// two.
	LegacyWantBlock bool
}

// Stats counts engine activity.
type Stats struct {
	BroadcastsSent   uint64 // WANT_HAVE broadcast rounds
	Rebroadcasts     uint64 // idle-loop repetitions
	WantHavesSent    uint64 // individual WANT_HAVE entries sent
	WantBlocksSent   uint64
	CancelsSent      uint64
	BlocksReceived   uint64
	BlocksServed     uint64
	HavesServed      uint64
	DontHavesServed  uint64
	DHTSearches      uint64
	ResolvedWants    uint64
	AbandonedWants   uint64
	DuplicateBlocks  uint64
	SessionsCreated  uint64
	SessionWantsSent uint64
}

// Session tracks the peers likely to have data related to one retrieval
// (Sec. III-D2). Subsequent requests for blocks of the same DAG go to these
// peers rather than being flooded.
type Session struct {
	Root  cid.CID
	peers map[simnet.NodeID]bool
}

// Peers returns the session's peer set as a sorted slice.
func (s *Session) Peers() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(s.peers))
	for p := range s.peers {
		out = append(out, p)
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []simnet.NodeID) {
	slices.SortFunc(ids, simnet.NodeID.Compare)
}

// wantState tracks one outstanding local want.
type wantState struct {
	c         cid.CID
	session   *Session
	broadcast bool               // root want: broadcast + DHT; false: session-scoped
	span      *otrace.SpanHandle // bitswap.get span; nil when untraced
	tc        otrace.Ctx         // span's context, parent of hops and DHT work

	// The peers sent WANT_HAVE (broadcast wants) and WANT_BLOCK for c, each
	// set sorted by ID (the node table's Compare). Cancels go out in that
	// order, which fixes their latency draws.
	wantHaveSent  []simnet.NodeRef
	wantBlockSent []simnet.NodeRef
	resolved      bool
	cancelled     bool
	searching     bool // DHT search in flight

	callbacks []func(data []byte, ok bool)
}

// Engine is one node's Bitswap implementation.
type Engine struct {
	net    engine.Engine
	self   simnet.NodeID
	ref    simnet.NodeRef // self's node-table ref
	store  *blockstore.Store
	router ProviderRouter
	cfg    Config

	wants map[cid.CID]*wantState
	// ledger holds the want_list entries connected peers announced to us
	// ("persisted for as long as the peer is connected"), all peers in one
	// map.
	ledger map[ledgerKey]wire.EntryType

	stats Stats
}

// ledgerKey is one (peer, CID) entry of the want ledger.
type ledgerKey struct {
	peer simnet.NodeRef
	c    cid.CID
}

// New creates an engine for node self, which must already be registered
// with net.
func New(net engine.Engine, self simnet.NodeID, store *blockstore.Store, router ProviderRouter, cfg Config) *Engine {
	ref, ok := net.Ref(self)
	if !ok {
		panic("bitswap: node " + self.String() + " is not registered with the network")
	}
	return &Engine{
		net:    net,
		self:   self,
		ref:    ref,
		store:  store,
		router: router,
		cfg:    cfg,
		wants:  make(map[cid.CID]*wantState),
		ledger: make(map[ledgerKey]wire.EntryType),
	}
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// WantlistOf returns the want entries a connected peer has announced to us.
func (e *Engine) WantlistOf(p simnet.NodeID) map[cid.CID]wire.EntryType {
	out := make(map[cid.CID]wire.EntryType)
	if r, ok := e.net.Ref(p); ok {
		for k, t := range e.ledger {
			if k.peer == r {
				out[k.c] = t
			}
		}
	}
	return out
}

// Get retrieves the block c following Fig. 1 and calls done exactly once.
// Repeated Gets for the same CID coalesce onto one want. It returns the
// session created (or joined) for the retrieval; cache hits return a fresh
// empty session.
//
// Under a sampled tc the retrieval becomes a bitswap.get span whose children
// are the want/have/block hops and any DHT provider search; a local-store hit
// records a zero-duration bitswap.local_hit marker. A zero tc traces nothing.
func (e *Engine) Get(tc otrace.Ctx, c cid.CID, done func(data []byte, ok bool)) *Session {
	if data, ok := e.store.Get(c); ok {
		if tc.Sampled() {
			now := e.now()
			e.net.Tracer().Start(tc, "bitswap.local_hit", e.self.String(), now).End(now)
		}
		done(data, true)
		return e.newSession(c)
	}
	if w, ok := e.wants[c]; ok && !w.resolved && !w.cancelled {
		w.callbacks = append(w.callbacks, done)
		return w.session
	}
	w := &wantState{
		c:         c,
		session:   e.newSession(c),
		broadcast: true,
		callbacks: []func([]byte, bool){done},
	}
	if tc.Sampled() {
		w.span = e.net.Tracer().StartKeyed(tc, "bitswap.get", e.self.String(), c.String(), e.now())
		w.tc = w.span.Ctx()
	}
	e.wants[c] = w
	e.broadcastWantHave(w)
	e.scheduleProviderSearch(w)
	e.scheduleRebroadcast(w)
	e.scheduleGiveUp(w)
	return w.session
}

// GetFromSession retrieves c by asking only the session's peers: the request
// pattern for non-root DAG blocks, invisible to passive monitors. tc is
// traced as in Get.
func (e *Engine) GetFromSession(tc otrace.Ctx, sess *Session, c cid.CID, done func(data []byte, ok bool)) {
	if data, ok := e.store.Get(c); ok {
		done(data, true)
		return
	}
	if w, ok := e.wants[c]; ok && !w.resolved && !w.cancelled {
		w.callbacks = append(w.callbacks, done)
		return
	}
	w := &wantState{
		c:         c,
		session:   sess,
		callbacks: []func([]byte, bool){done},
	}
	if tc.Sampled() {
		w.span = e.net.Tracer().StartKeyed(tc, "bitswap.get", e.self.String(), c.String(), e.now())
		w.tc = w.span.Ctx()
	}
	e.wants[c] = w
	peers := sess.Peers()
	if len(peers) == 0 {
		e.resolve(w, nil, false)
		return
	}
	sent := 0
	for _, p := range peers {
		if sent >= WantBlockFanout {
			break
		}
		if r, ok := e.net.Ref(p); ok {
			e.sendWantBlock(w, r)
		}
		sent++
	}
	e.stats.SessionWantsSent += uint64(sent)
	e.scheduleRebroadcast(w)
	e.scheduleGiveUp(w)
}

// Cancel abandons the want for c (user cancel), notifying peers via CANCEL.
func (e *Engine) Cancel(c cid.CID) {
	w, ok := e.wants[c]
	if !ok || w.resolved || w.cancelled {
		return
	}
	w.cancelled = true
	e.sendCancels(w)
	delete(e.wants, c)
	e.stats.AbandonedWants++
	w.span.EndDropped(e.now())
	for _, cb := range w.callbacks {
		cb(nil, false)
	}
}

func (e *Engine) newSession(root cid.CID) *Session {
	e.stats.SessionsCreated++
	return &Session{Root: root, peers: make(map[simnet.NodeID]bool)}
}

// now returns the exact virtual time of the event currently running for this
// node.
func (e *Engine) now() time.Time { return e.net.EventTime(e.self) }

// broadcastWantHave sends WANT_HAVE c to every currently connected peer,
// all of them sharing one message. SendEachRef walks the node's published
// peer set in place, with no per-peer lookup, so the hottest bitswap loop
// (every session start and every 30 s rebroadcast of every unresolved want)
// neither copies nor searches the connection table. A broadcast re-asks
// every peer, so it starts wantHaveSent over, and appending in the set's ID
// order keeps it sorted.
func (e *Engine) broadcastWantHave(w *wantState) {
	e.stats.BroadcastsSent++
	w.wantHaveSent = w.wantHaveSent[:0]
	msg := e.wantHaveMsg(w)
	e.net.SendEachRef(w.tc, "send.want_have", e.ref, msg, func(p simnet.NodeRef) {
		w.wantHaveSent = append(w.wantHaveSent, p)
	})
	e.countWantHaves(msg, len(w.wantHaveSent))
}

// wantHaveMsg builds the broadcast want for w: WANT_HAVE, or WANT_BLOCK in
// legacy mode.
func (e *Engine) wantHaveMsg(w *wantState) *wire.Message {
	typ := wire.WantHave
	if e.cfg.LegacyWantBlock {
		typ = wire.WantBlock
	}
	return &wire.Message{Wantlist: []wire.Entry{{
		Type:         typ,
		CID:          w.c,
		SendDontHave: e.cfg.SendDontHave,
	}}}
}

// countWantHaves counts n sends of msg, built by wantHaveMsg.
func (e *Engine) countWantHaves(msg *wire.Message, n int) {
	if msg.Wantlist[0].Type == wire.WantHave {
		e.stats.WantHavesSent += uint64(n)
	} else {
		e.stats.WantBlocksSent += uint64(n)
	}
}

// SetLegacyWantBlock flips the pre-v0.5 broadcast behaviour at runtime,
// modelling a client upgrade.
func (e *Engine) SetLegacyWantBlock(legacy bool) {
	e.cfg.LegacyWantBlock = legacy
}

// searchRef finds p's position in refs, sorted by the node table's Compare.
func (e *Engine) searchRef(refs []simnet.NodeRef, p simnet.NodeRef) (int, bool) {
	return slices.BinarySearchFunc(refs, p, e.net.Compare)
}

func (e *Engine) sendWantBlock(w *wantState, p simnet.NodeRef) {
	i, sent := e.searchRef(w.wantBlockSent, p)
	if sent {
		return
	}
	msg := &wire.Message{Wantlist: []wire.Entry{{
		Type:         wire.WantBlock,
		CID:          w.c,
		SendDontHave: e.cfg.SendDontHave,
	}}}
	if e.net.SendRef(w.tc, "send.want_block", e.ref, p, msg) == nil {
		w.wantBlockSent = slices.Insert(w.wantBlockSent, i, p)
		e.stats.WantBlocksSent++
	}
}

// sendCancels notifies every peer that received a want entry for w.c, in ID
// order: it walks the union of the two sorted sent sets.
func (e *Engine) sendCancels(w *wantState) {
	msg := &wire.Message{Wantlist: []wire.Entry{{Type: wire.Cancel, CID: w.c}}}
	haves, blocks := w.wantHaveSent, w.wantBlockSent
	for len(haves) > 0 || len(blocks) > 0 {
		var order int
		switch {
		case len(blocks) == 0:
			order = -1
		case len(haves) == 0:
			order = 1
		default:
			order = e.net.Compare(haves[0], blocks[0])
		}
		var p simnet.NodeRef
		if order <= 0 {
			p, haves = haves[0], haves[1:]
		}
		if order >= 0 {
			p, blocks = blocks[0], blocks[1:]
		}
		if e.net.SendRef(w.tc, "send.cancel", e.ref, p, msg) == nil {
			e.stats.CancelsSent++
		}
	}
}

// scheduleProviderSearch arms step 3 of Fig. 1: after ProviderSearchDelay,
// if the session is still empty, search the DHT.
func (e *Engine) scheduleProviderSearch(w *wantState) {
	e.net.AfterOn(e.self, ProviderSearchDelay, func() {
		if w.resolved || w.cancelled || len(w.session.peers) > 0 || w.searching {
			return
		}
		e.searchProviders(w)
	})
}

func (e *Engine) searchProviders(w *wantState) {
	if e.router == nil {
		return
	}
	w.searching = true
	e.stats.DHTSearches++
	cb := func(provs []dht.PeerInfo) {
		w.searching = false
		if w.resolved || w.cancelled {
			return
		}
		msg := e.wantHaveMsg(w)
		for _, p := range provs {
			r, ok := e.net.Ref(p.ID)
			if !ok || r == e.ref {
				continue
			}
			// Establish connections to all p in P(c), then WANT_HAVE the
			// newly connected peers.
			if !e.net.ConnectedRef(e.ref, r) && e.net.ConnectRef(e.ref, r) != nil {
				continue
			}
			if i, sent := e.searchRef(w.wantHaveSent, r); !sent && e.net.SendRef(w.tc, "send.want_have", e.ref, r, msg) == nil {
				w.wantHaveSent = slices.Insert(w.wantHaveSent, i, r)
				e.countWantHaves(msg, 1)
			}
		}
	}
	e.router.FindProviders(w.tc, dht.KeyForCID(w.c), MaxProviders, cb)
}

// scheduleRebroadcast arms the idle loop: every RebroadcastInterval an
// unresolved broadcast-want re-broadcasts and re-searches the DHT.
func (e *Engine) scheduleRebroadcast(w *wantState) {
	e.net.AfterOn(e.self, RebroadcastInterval, func() {
		if w.resolved || w.cancelled {
			return
		}
		e.stats.Rebroadcasts++
		// Re-ask peers already asked: the real client's timers work per-peer
		// and re-send entries.
		if w.broadcast {
			e.broadcastWantHave(w)
			if len(w.session.peers) == 0 && !w.searching {
				e.searchProviders(w)
			}
		} else {
			e.resendWantBlocks(w)
		}
		e.scheduleRebroadcast(w)
	})
}

// resendWantBlocks re-sends a session-scoped want's WANT_BLOCK to the first
// WantBlockFanout session peers, whether or not they were asked before.
func (e *Engine) resendWantBlocks(w *wantState) {
	w.wantBlockSent = slices.DeleteFunc(w.wantBlockSent, func(p simnet.NodeRef) bool {
		return w.session.peers[e.net.ID(p)]
	})
	peers := w.session.Peers()
	for _, p := range peers[:min(len(peers), WantBlockFanout)] {
		if r, ok := e.net.Ref(p); ok {
			e.sendWantBlock(w, r)
		}
	}
}

func (e *Engine) scheduleGiveUp(w *wantState) {
	if e.cfg.GiveUpAfter <= 0 {
		return
	}
	e.net.AfterOn(e.self, e.cfg.GiveUpAfter, func() {
		if w.resolved || w.cancelled {
			return
		}
		w.cancelled = true //bsvet:shardaffinity w is e's own wantState; same node as the e.self affinity
		e.sendCancels(w)
		delete(e.wants, w.c)
		e.stats.AbandonedWants++
		w.span.EndDropped(e.now())
		for _, cb := range w.callbacks {
			cb(nil, false)
		}
	})
}

func (e *Engine) resolve(w *wantState, data []byte, ok bool) {
	if w.resolved || w.cancelled {
		return
	}
	w.resolved = true
	delete(e.wants, w.c)
	if ok {
		e.stats.ResolvedWants++
		w.span.End(e.now())
	} else {
		e.stats.AbandonedWants++
		w.span.EndDropped(e.now())
	}
	for _, cb := range w.callbacks {
		cb(data, ok)
	}
}

// HandleMessage processes an incoming Bitswap message. It reports whether
// the message was a Bitswap message.
func (e *Engine) HandleMessage(from simnet.NodeID, msg any) bool {
	m, ok := msg.(*wire.Message)
	if !ok {
		return false
	}
	// The sender's ref keys its ledger entries and addresses the reply; a
	// message without wants needs it only to answer a HAVE with WANT_BLOCK.
	var ref simnet.NodeRef
	if len(m.Wantlist) > 0 {
		var known bool
		if ref, known = e.net.Ref(from); !known {
			return true
		}
	}
	// The reply is allocated lazily: most inbound traffic needs no response
	// (monitors never hold blocks), and an unconditional stack reply would
	// escape to the heap through the network interface on every message.
	var reply *wire.Message
	for _, entry := range m.Wantlist {
		switch entry.Type {
		case wire.WantHave:
			e.ledger[ledgerKey{ref, entry.CID}] = entry.Type
			if e.store.Has(entry.CID) {
				reply = addPresence(reply, wire.Have, entry.CID)
				e.stats.HavesServed++
			} else if entry.SendDontHave {
				reply = addPresence(reply, wire.DontHave, entry.CID)
				e.stats.DontHavesServed++
			}
		case wire.WantBlock:
			e.ledger[ledgerKey{ref, entry.CID}] = entry.Type
			if data, ok := e.store.Get(entry.CID); ok {
				if reply == nil {
					reply = &wire.Message{}
				}
				reply.Blocks = append(reply.Blocks, wire.Block{CID: entry.CID, Data: data})
				e.stats.BlocksServed++
			} else if entry.SendDontHave {
				reply = addPresence(reply, wire.DontHave, entry.CID)
				e.stats.DontHavesServed++
			}
		case wire.Cancel:
			delete(e.ledger, ledgerKey{ref, entry.CID})
		}
	}
	for _, p := range m.Presences {
		w, ok := e.wants[p.CID]
		if !ok || w.resolved || w.cancelled {
			continue
		}
		if p.Type == wire.Have {
			// Add HAVE-sending peers to S(c); request the block.
			w.session.peers[from] = true
			if len(w.wantBlockSent) < WantBlockFanout {
				if r, ok := e.net.Ref(from); ok {
					e.sendWantBlock(w, r)
				}
			}
		}
	}
	for _, b := range m.Blocks {
		e.receiveBlock(from, b)
	}
	if reply != nil {
		// The reply inherits the inbound want's trace context so the response
		// hop nests under the requester's bitswap.get span.
		hop := "send.resp"
		if len(reply.Blocks) > 0 {
			hop = "send.block"
		}
		_ = e.net.SendRef(e.net.InboundCtx(e.self), hop, e.ref, ref, reply)
	}
	return true
}

// addPresence appends a HAVE/DONT_HAVE response, allocating the reply on
// first use.
func addPresence(m *wire.Message, t wire.PresenceType, c cid.CID) *wire.Message {
	if m == nil {
		m = &wire.Message{}
	}
	m.Presences = append(m.Presences, wire.Presence{Type: t, CID: c})
	return m
}

func (e *Engine) receiveBlock(from simnet.NodeID, b wire.Block) {
	w, ok := e.wants[b.CID]
	if !ok || w.resolved || w.cancelled {
		e.stats.DuplicateBlocks++
		return
	}
	// Verify content addressing on the bytes the block carries, and on
	// those a kept block must carry: tampered blocks are dropped. A block
	// without bytes is the CID it answers, which keys the want.
	if b.Data != nil || blockstore.KeepsBytes(b.CID) {
		mh, err := b.CID.Hash()
		if err != nil || mh.Verify(b.Data) != nil {
			return
		}
	}
	e.stats.BlocksReceived++
	e.store.Put(b.CID, b.Data)
	// By caching the block the node becomes a provider for it.
	if e.cfg.Reprovide && w.broadcast && e.router != nil {
		e.router.Provide(dht.KeyForCID(b.CID), nil)
	}
	w.session.peers[from] = true
	e.sendCancels(w)
	e.resolve(w, b.Data, true)
}

// PeerConnected implements the connection callback; nothing to do on the
// engine side (the real client may push its want_list to new peers; our
// broadcasts re-reach new peers at the next rebroadcast, matching the
// paper's observed behaviour closely enough for trace purposes).
func (e *Engine) PeerConnected(p simnet.NodeID) {}

// PeerDisconnected drops the peer's ledger entries, matching "persisted for
// as long as the peer is connected". It scans the whole ledger: a node's
// ledger holds the open wants of its peers, a handful on a node that sees
// churn (a monitor's is large, but monitors keep their connections).
func (e *Engine) PeerDisconnected(p simnet.NodeID) {
	r, ok := e.net.Ref(p)
	if !ok {
		return
	}
	for k := range e.ledger {
		if k.peer == r {
			delete(e.ledger, k)
		}
	}
}
