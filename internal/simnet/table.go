package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by network operations.
var (
	ErrUnknownNode  = errors.New("simnet: unknown node")
	ErrNotConnected = errors.New("simnet: not connected")
	ErrAtCapacity   = errors.New("simnet: connection capacity reached")
	ErrOffline      = errors.New("simnet: node offline")
	ErrSelfDial     = errors.New("simnet: cannot connect node to itself")
)

// NodeRef is a node's dense index in its Table, assigned at AddNode. Nodes
// are never removed, so a ref stays valid for the table's lifetime; hot send
// loops resolve their endpoints once and skip the per-call ID lookups.
type NodeRef int32

// Table is the node table every engine embeds: membership, the connection
// table and base latencies. It holds the one copy of the connect rule and of
// the send- and delivery-side connection checks, so the engines differ only
// in their event loops and in when handlers hear of connection changes.
//
// Layout: NodeID -> NodeRef at AddNode, then flat slices indexed by ref.
// Each node's connections are an immutable peer set sorted by NodeID,
// published atomically on every change (copy-on-write) together with a
// version number, its epoch; the online flag is an atomic.Bool. Readers take
// no lock. Writers (Connect, Disconnect, SetOnline) serialise on one mutex
// and call the notify hook after releasing it, so a handler may call back
// into the table. AddNode may only run while no event code does.
type Table struct {
	lm     *LatencyModel
	notify func(node, peer NodeRef, up bool)

	idx      map[NodeID]NodeRef
	ids      []NodeID
	keys     []uint64 // ids' leading 8 bytes, big-endian: the peer-set sort key
	addrs    []string
	region   []int32 // index into regions and base
	maxConns []int32 // 0 means unlimited
	handlers []Handler
	cells    []cell

	// base[i][j] is the base delay from regions[i] to regions[j], filled in
	// as AddNode meets new regions.
	regions   []Region
	regionIdx map[Region]int32
	base      [][]time.Duration

	mu sync.Mutex // serialises connection-table writers
}

// cell is one node's connection state.
type cell struct {
	set    atomic.Pointer[peerSet]
	online atomic.Bool
}

// peerSet is one published version of a node's connections. A set is never
// modified after it is published; its epoch is one more than the set it
// replaced, so an equal epoch means the very same set.
type peerSet struct {
	peers []NodeRef // sorted by NodeID
	epoch uint64
}

var emptySet = &peerSet{}

// NewTable returns an empty table over latency model lm (nil selects
// DefaultLatencyModel). notify hears every connection change once per side:
// the connection from node to peer went up or down.
func NewTable(lm *LatencyModel, notify func(node, peer NodeRef, up bool)) *Table {
	if lm == nil {
		lm = DefaultLatencyModel()
	}
	return &Table{
		lm:        lm,
		notify:    notify,
		idx:       make(map[NodeID]NodeRef),
		regionIdx: make(map[Region]int32),
	}
}

// Latency returns the table's latency model.
func (t *Table) Latency() *LatencyModel { return t.lm }

// AddNode registers a node. maxConns of 0 means unlimited connections
// (the monitor configuration: "nodes with infinite connection capacity").
// Call it at build time or between Run calls, never from event code.
func (t *Table) AddNode(id NodeID, addr string, region Region, maxConns int, h Handler) error {
	if _, ok := t.idx[id]; ok {
		return fmt.Errorf("simnet: node %s already registered", id)
	}
	t.idx[id] = NodeRef(len(t.ids))
	t.ids = append(t.ids, id)
	t.keys = append(t.keys, binary.BigEndian.Uint64(id[:]))
	t.addrs = append(t.addrs, addr)
	t.region = append(t.region, t.regionIndex(region))
	t.maxConns = append(t.maxConns, int32(maxConns))
	t.handlers = append(t.handlers, h)
	t.cells = append(t.cells, cell{})
	c := &t.cells[len(t.cells)-1]
	c.set.Store(emptySet)
	c.online.Store(true)
	return nil
}

// regionIndex interns a region, extending the base-delay matrix.
func (t *Table) regionIndex(r Region) int32 {
	if i, ok := t.regionIdx[r]; ok {
		return i
	}
	i := int32(len(t.regions))
	t.regionIdx[r] = i
	t.regions = append(t.regions, r)
	for j, row := range t.base {
		t.base[j] = append(row, t.lm.BaseFor(t.regions[j], r))
	}
	row := make([]time.Duration, len(t.regions))
	for j, o := range t.regions {
		row[j] = t.lm.BaseFor(r, o)
	}
	t.base = append(t.base, row)
	return i
}

// Ref resolves a node ID to its table index.
func (t *Table) Ref(id NodeID) (NodeRef, bool) {
	r, ok := t.idx[id]
	return r, ok
}

// ID returns the node a ref stands for.
func (t *Table) ID(r NodeRef) NodeID { return t.ids[r] }

// Key returns the leading 8 bytes of a ref's ID, big-endian: it orders
// nodes, and ranks them by XOR distance, everywhere but on a prefix tie.
func (t *Table) Key(r NodeRef) uint64 { return t.keys[r] }

// Handler returns the handler registered for a ref.
func (t *Table) Handler(r NodeRef) Handler { return t.handlers[r] }

// Addr returns a node's network address.
func (t *Table) Addr(id NodeID) (string, bool) {
	r, ok := t.idx[id]
	if !ok {
		return "", false
	}
	return t.addrs[r], true
}

// IsOnline reports a node's availability.
func (t *Table) IsOnline(id NodeID) bool {
	r, ok := t.idx[id]
	return ok && t.cells[r].online.Load()
}

// Compare orders two refs by their nodes' IDs: by key, and by the full ID
// only when the keys are equal. Peer sets are sorted by it.
func (t *Table) Compare(a, b NodeRef) int {
	if ka, kb := t.keys[a], t.keys[b]; ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	return t.ids[a].Compare(t.ids[b])
}

// search finds r's position in peers, which are sorted by Compare.
func (t *Table) search(peers []NodeRef, r NodeRef) (int, bool) {
	lo, hi := 0, len(peers)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		p := peers[m]
		if p == r {
			return m, true
		}
		if t.Compare(p, r) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, false
}

// full reports whether node r, holding peer set s, is at capacity.
func (t *Table) full(r NodeRef, s *peerSet) bool {
	return t.maxConns[r] > 0 && len(s.peers) >= int(t.maxConns[r])
}

// Connect establishes a bidirectional connection between a and b. The rule,
// checked in this order: no self-dial; both nodes known; both online;
// nothing to do when already connected; the target b below capacity; the
// dialer a below capacity. Capacity errors name the node that is full.
func (t *Table) Connect(a, b NodeID) error {
	if a == b {
		return ErrSelfDial
	}
	ia, ok := t.idx[a]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, a)
	}
	ib, ok := t.idx[b]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, b)
	}
	return t.ConnectRef(ia, ib)
}

// ConnectRef is Connect with pre-resolved endpoints.
func (t *Table) ConnectRef(a, b NodeRef) error {
	if a == b {
		return ErrSelfDial
	}
	added, err := t.link(a, b)
	if added {
		t.notify(a, b, true)
		t.notify(b, a, true)
	}
	return err
}

// link applies the rest of the connect rule under the writer lock and
// publishes both new peer sets, reporting whether the connection is new.
func (t *Table) link(a, b NodeRef) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ca, cb := &t.cells[a], &t.cells[b]
	if !ca.online.Load() || !cb.online.Load() {
		return false, ErrOffline
	}
	sa, sb := ca.set.Load(), cb.set.Load()
	i, found := t.search(sa.peers, b)
	switch {
	case found:
		return false, nil
	case t.full(b, sb):
		return false, fmt.Errorf("%w: %s", ErrAtCapacity, t.ids[b])
	case t.full(a, sa):
		return false, fmt.Errorf("%w: %s", ErrAtCapacity, t.ids[a])
	}
	j, _ := t.search(sb.peers, a)
	ca.set.Store(&peerSet{peers: slices.Concat(sa.peers[:i], []NodeRef{b}, sa.peers[i:]), epoch: sa.epoch + 1})
	cb.set.Store(&peerSet{peers: slices.Concat(sb.peers[:j], []NodeRef{a}, sb.peers[j:]), epoch: sb.epoch + 1})
	return true, nil
}

// Disconnect tears down the connection between a and b, if any.
func (t *Table) Disconnect(a, b NodeID) {
	ia, oka := t.idx[a]
	ib, okb := t.idx[b]
	if oka && okb {
		t.teardown(ia, ib)
	}
}

// teardown removes the connection a–b, if it still exists, and notifies
// both sides.
func (t *Table) teardown(a, b NodeRef) {
	if t.unlink(a, b) {
		t.notify(a, b, false)
		t.notify(b, a, false)
	}
}

// unlink removes the connection a–b under the writer lock, reporting
// whether there was one.
func (t *Table) unlink(a, b NodeRef) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ca, cb := &t.cells[a], &t.cells[b]
	sa, sb := ca.set.Load(), cb.set.Load()
	i, found := t.search(sa.peers, b)
	if !found {
		return false
	}
	j, _ := t.search(sb.peers, a)
	ca.set.Store(&peerSet{peers: slices.Concat(sa.peers[:i], sa.peers[i+1:]), epoch: sa.epoch + 1})
	cb.set.Store(&peerSet{peers: slices.Concat(sb.peers[:j], sb.peers[j+1:]), epoch: sb.epoch + 1})
	return true
}

// SetOnline flips a node's availability. Taking a node offline tears down
// its connections one at a time in peer order, notifying both sides of each
// before the next (modelling churn); bringing it online leaves it
// disconnected.
func (t *Table) SetOnline(id NodeID, online bool) error {
	r, ok := t.idx[id]
	if !ok {
		return ErrUnknownNode
	}
	t.mu.Lock()
	c := &t.cells[r]
	was := c.online.Swap(online)
	peers := c.set.Load().peers
	t.mu.Unlock()
	if was && !online {
		// No connection to r can be added from here on: Connect checks
		// online under the lock.
		for _, p := range peers {
			t.teardown(r, p)
		}
	}
	return nil
}

// ConnectedRef reports whether a and b share a connection.
func (t *Table) ConnectedRef(a, b NodeRef) bool { return t.has(t.cells[a].set.Load(), b) }

// Peers returns a snapshot of a node's connected peers, sorted by ID. The
// deterministic order matters: broadcast loops consume RNG state per peer.
func (t *Table) Peers(id NodeID) []NodeID {
	r, ok := t.idx[id]
	if !ok {
		return nil
	}
	peers := t.cells[r].set.Load().peers
	if len(peers) == 0 {
		return nil
	}
	out := make([]NodeID, len(peers))
	for k, p := range peers {
		out[k] = t.ids[p]
	}
	return out
}

// PeerCount returns the size of a node's connection table.
func (t *Table) PeerCount(id NodeID) int {
	r, ok := t.idx[id]
	if !ok {
		return 0
	}
	return len(t.cells[r].set.Load().peers)
}

// Route is a resolved send: its endpoints, the epoch of the sender's peer
// set the connection was found in, and the base (jitter-free) delay.
type Route struct {
	From, To NodeRef
	Epoch    uint64
	Base     time.Duration
}

// Route resolves a send from one node to a connected peer.
func (t *Table) Route(from, to NodeID) (Route, error) {
	fi, ok := t.idx[from]
	if !ok {
		return Route{}, fmt.Errorf("%w: %s", ErrUnknownNode, from)
	}
	ti, ok := t.idx[to]
	if !ok {
		return Route{}, fmt.Errorf("%w: %s -> %s", ErrNotConnected, from, to)
	}
	return t.RouteRef(fi, ti)
}

// RouteRef is Route with pre-resolved endpoints.
func (t *Table) RouteRef(from, to NodeRef) (Route, error) {
	set := t.cells[from].set.Load()
	if !t.has(set, to) {
		return Route{}, fmt.Errorf("%w: %s -> %s", ErrNotConnected, t.ids[from], t.ids[to])
	}
	return Route{From: from, To: to, Epoch: set.epoch, Base: t.base[t.region[from]][t.region[to]]}, nil
}

// Deliverable revalidates a routed message at delivery time: the connection
// and the receiver's liveness may both have changed while it was in flight.
// An unchanged sender epoch proves the connection found at send time still
// exists, which skips the peer-set lookup on the (overwhelmingly common)
// stable-topology path.
func (t *Table) Deliverable(from, to NodeRef, epoch uint64) bool {
	set := t.cells[from].set.Load()
	return t.cells[to].online.Load() && (set.epoch == epoch || t.has(set, to))
}

// has reports whether set holds r.
func (t *Table) has(set *peerSet, r NodeRef) bool {
	_, found := t.search(set.peers, r)
	return found
}
