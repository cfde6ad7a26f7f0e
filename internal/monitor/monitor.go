// Package monitor implements the paper's core contribution (Sec. IV-A): a
// passive monitoring node that exploits Bitswap's broadcast behaviour to
// record which node requested which CID at what time.
//
// A monitor is a regular node with infinite connection capacity that accepts
// all incoming connections, never evicts peers, never requests data, and
// logs every want_list entry it receives. It remains indistinguishable from
// an ordinary (empty) node: it answers WANT_HAVEs with DONT_HAVE like any
// node that does not store the block.
package monitor

import (
	"fmt"
	"maps"
	"time"

	"bitswapmon/internal/dht"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/node"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// Spec declares one monitoring vantage point: the name that labels its
// trace entries and the region it is placed in.
type Spec struct {
	Name   string        `json:"name"`
	Region simnet.Region `json:"region"`
}

// Monitor is one passive monitoring node.
type Monitor struct {
	// Name labels this monitor's trace entries (the paper's "us"/"de").
	Name string
	// Node is the underlying IPFS node (DHT server, unlimited connections).
	Node *node.Node

	net engine.Engine

	// sink receives every observed entry; nil until SetSink, and a monitor
	// without a sink records nothing.
	sink    ingest.Sink
	sinkErr error
	// taps are live observers (see OnEntry) fed independently of the
	// sink, so e.g. gateway probing works whatever the sink type.
	taps []func(trace.Entry)

	// peersSeen records every peer ever connected while monitoring, with
	// first-seen time: the per-monitor peer sets of Sec. V-C.
	peersSeen map[simnet.NodeID]time.Time
	// active records peers that sent at least one Bitswap entry.
	active map[simnet.NodeID]bool
}

// New creates and registers a monitor. Monitors run as DHT clients: they
// bootstrap and can announce provider records (needed for gateway probing),
// but they do not enter other nodes' k-buckets — so the connections they
// hold are exactly the inbound ones the network chooses to open, matching
// the passive posture of Sec. IV-A. Like every node's, a monitor's
// connection capacity is unlimited.
func New(net engine.Engine, name, addr string, region simnet.Region) (*Monitor, error) {
	id := simnet.DeriveNodeID([]byte("monitor:" + name))
	nd, err := node.New(net, id, addr, region, node.Config{Mode: dht.ModeClient})
	if err != nil {
		return nil, fmt.Errorf("monitor %s: %w", name, err)
	}
	// Monitors run on the engine's control shard: their trace state is fed
	// by their own message handler and read by control-affine orchestration
	// (samplers, probers), which must not race.
	net.Pin(id)
	m := &Monitor{
		Name:      name,
		Node:      nd,
		net:       net,
		peersSeen: make(map[simnet.NodeID]time.Time),
		active:    make(map[simnet.NodeID]bool),
	}
	nd.MessageTap = m.tapMessage
	nd.ConnTap = m.tapConn
	return m, nil
}

// Start connects the monitor to its bootstrap peers and seeds its routing
// table, without running iterative lookups or periodic refreshes: outbound
// dialing must stay minimal, or the monitor's own maintenance would inflate
// its peer set in a scaled-down network (the real network is three orders of
// magnitude larger than a lookup's footprint, so refreshes are harmless
// there).
func (m *Monitor) Start(bootstrap []dht.PeerInfo) {
	for _, p := range bootstrap {
		m.Node.DHT.Observe(p)
		_ = m.Node.ConnectTo(p.ID)
	}
}

// ID returns the monitor's (normally hidden) node ID.
func (m *Monitor) ID() simnet.NodeID { return m.Node.ID }

func (m *Monitor) tapConn(peer simnet.NodeID, connected bool) {
	if !connected {
		return
	}
	if _, seen := m.peersSeen[peer]; !seen {
		m.peersSeen[peer] = m.net.EventTime(m.Node.ID)
	}
}

func (m *Monitor) tapMessage(from simnet.NodeID, msg any) {
	bm, ok := msg.(*wire.Message)
	if !ok {
		return
	}
	if len(bm.Wantlist) == 0 {
		return
	}
	addr, _ := m.net.Addr(from)
	now := m.net.EventTime(m.Node.ID)
	if !m.active[from] {
		m.active[from] = true
	}
	for _, entry := range bm.Wantlist {
		e := trace.Entry{
			Timestamp: now,
			Monitor:   m.Name,
			NodeID:    from,
			Addr:      addr,
			Type:      entry.Type,
			CID:       entry.CID,
		}
		if m.sink != nil {
			if err := m.sink.Write(e); err != nil && m.sinkErr == nil {
				m.sinkErr = err
			}
		}
		for _, tap := range m.taps {
			tap(e)
		}
	}
}

// OnEntry registers a live observer called for every entry as it is
// recorded, independently of the configured sink, for the monitor's
// lifetime. Observers must not block; they run inside the simulation's
// delivery path.
func (m *Monitor) OnEntry(fn func(trace.Entry)) {
	m.taps = append(m.taps, fn)
}

// SetSink points subsequent observations at s (an ingest.SegmentStore,
// an ingest.MemorySink, an ingest.Tee, ...) and clears any error recorded
// for the previous sink; entries already held by the previous sink stay
// there. A nil s stops recording: the monitor keeps its peer sets and feeds
// its OnEntry observers, but writes no entry anywhere.
func (m *Monitor) SetSink(s ingest.Sink) {
	m.sink = s
	m.sinkErr = nil
}

// SinkErr returns the first error the sink reported, if any. Entries
// observed after a sink error are still offered to the sink.
func (m *Monitor) SinkErr() error { return m.sinkErr }

// ResetTrace empties the monitor's sink when it is an ingest.MemorySink and
// does nothing otherwise.
func (m *Monitor) ResetTrace() {
	if mem, ok := m.sink.(*ingest.MemorySink); ok {
		mem.Reset()
	}
}

// PeerSets is a snapshot of one monitor's peer sets, the per-monitor sets
// of Sec. V-C.
type PeerSets struct {
	// Monitor names the monitor.
	Monitor string
	// Seen holds every peer that connected at least once while monitoring,
	// with the time it was first seen.
	Seen map[simnet.NodeID]time.Time
	// Active holds the peers that sent at least one want entry.
	Active map[simnet.NodeID]bool
}

// Peers snapshots the monitor's peer sets; the maps are the caller's.
func (m *Monitor) Peers() PeerSets {
	return PeerSets{Monitor: m.Name, Seen: maps.Clone(m.peersSeen), Active: maps.Clone(m.active)}
}

// CurrentPeers returns the instantaneous connection table.
func (m *Monitor) CurrentPeers() []simnet.NodeID {
	return m.net.Peers(m.Node.ID)
}

// PeerIDUniform01 returns the current peers' IDs mapped to [0,1): the data
// behind the paper's Fig. 3 QQ uniformity diagnostic.
func (m *Monitor) PeerIDUniform01() []float64 {
	peers := m.CurrentPeers()
	out := make([]float64, len(peers))
	for i, p := range peers {
		out[i] = p.Uniform01()
	}
	return out
}
