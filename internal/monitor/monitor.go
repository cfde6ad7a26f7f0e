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

	// sink receives every observed entry; by default an in-memory sink
	// that keeps Trace()/ResetTrace() working. Production-scale scenarios
	// inject an ingest.SegmentStore (or a Tee) via SetSink so the trace
	// streams to disk instead of accumulating in RAM.
	sink ingest.Sink
	// mem is sink when it is the default memory sink, nil otherwise.
	mem     *ingest.MemorySink
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
	mem := ingest.NewMemorySink()
	m := &Monitor{
		Name:      name,
		Node:      nd,
		net:       net,
		sink:      mem,
		mem:       mem,
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
		if err := m.sink.Write(e); err != nil && m.sinkErr == nil {
			m.sinkErr = err
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

// SetSink redirects subsequent observations into s (e.g. an
// ingest.SegmentStore, or an ingest.Tee) and clears any error
// recorded for the previous sink. Call it before the scenario runs:
// entries already held by the previous sink are not migrated. With a
// non-memory sink, Trace returns nil and ResetTrace does nothing — the
// trace lives wherever the sink put it.
func (m *Monitor) SetSink(s ingest.Sink) {
	m.sink = s
	m.mem, _ = s.(*ingest.MemorySink)
	m.sinkErr = nil
}

// SinkErr returns the first error the sink reported, if any. Entries
// observed after a sink error are still offered to the sink.
func (m *Monitor) SinkErr() error { return m.sinkErr }

// Trace returns a snapshot of the recorded entries when the monitor writes
// to a memory sink (the default), nil otherwise. The snapshot is owned by
// the caller; mutating it cannot corrupt the monitor.
func (m *Monitor) Trace() []trace.Entry {
	if m.mem == nil {
		return nil
	}
	return m.mem.Snapshot()
}

// ResetTrace discards the recorded entries (e.g. after a warm-up phase).
// It only applies to the memory sink.
func (m *Monitor) ResetTrace() {
	if m.mem != nil {
		m.mem.Reset()
	}
}

// PeersSeen returns every peer that connected at least once while
// monitoring.
func (m *Monitor) PeersSeen() map[simnet.NodeID]time.Time {
	out := make(map[simnet.NodeID]time.Time, len(m.peersSeen))
	for k, v := range m.peersSeen {
		out[k] = v
	}
	return out
}

// BitswapActivePeers returns the peers that sent at least one want entry.
func (m *Monitor) BitswapActivePeers() map[simnet.NodeID]bool {
	out := make(map[simnet.NodeID]bool, len(m.active))
	for k := range m.active {
		out[k] = true
	}
	return out
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
