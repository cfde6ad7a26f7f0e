// Package node composes blockstore, DHT and Bitswap into a full IPFS-like
// node, the unit the workload generator deploys and the monitor observes.
package node

import (
	"fmt"
	"math/rand"
	"time"

	"bitswapmon/internal/bitswap"
	"bitswapmon/internal/blockstore"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/merkledag"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
)

// Config parametrises a node.
type Config struct {
	// Mode selects DHT server or client participation. The real client
	// chooses based on reachability; the workload generator chooses based
	// on the scenario's NAT fraction. Zero selects ModeServer.
	Mode dht.Mode
	// Bitswap configures the exchange engine.
	Bitswap bitswap.Config
	// RefreshInterval is the periodic DHT refresh period (0 selects 10
	// minutes, as in go-ipfs).
	RefreshInterval time.Duration
	// ChunkSize configures the DAG builder for published content.
	ChunkSize int
}

// Node is one IPFS participant.
type Node struct {
	ID     simnet.NodeID
	Addr   string
	Region simnet.Region

	net     engine.Engine
	Store   *blockstore.Store
	DHT     *dht.DHT
	Bitswap *bitswap.Engine

	cfg     Config
	rng     *rand.Rand
	builder *merkledag.Builder
	running bool

	// MessageTap, when set, observes every inbound message before normal
	// processing. Monitors use it to record Bitswap traffic.
	MessageTap func(from simnet.NodeID, msg any)
	// ConnTap, when set, observes connection table changes.
	ConnTap func(peer simnet.NodeID, connected bool)
}

var _ simnet.Handler = (*Node)(nil)

// New creates a node and registers it with the network.
func New(net engine.Engine, id simnet.NodeID, addr string, region simnet.Region, cfg Config) (*Node, error) {
	if cfg.Mode == 0 {
		cfg.Mode = dht.ModeServer
	}
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = 10 * time.Minute
	}
	n := &Node{
		ID:     id,
		Addr:   addr,
		Region: region,
		net:    net,
		Store:  blockstore.New(),
		cfg:    cfg,
		rng:    net.NewRand("node-" + id.HexFull()),
	}
	// maxConns 0: no node's connection table is capped. The node registers
	// before its DHT is built, which resolves its ref; no event runs in
	// between, since AddNode is never called from event code.
	if err := net.AddNode(id, addr, region, 0, n); err != nil {
		return nil, fmt.Errorf("register node: %w", err)
	}
	n.DHT = dht.New(net, dht.PeerInfo{ID: id}, cfg.Mode)
	n.Bitswap = bitswap.New(net, id, n.Store, n.DHT, cfg.Bitswap)
	n.builder = merkledag.NewBuilder(n.Store, cfg.ChunkSize, 0)
	return n, nil
}

// HandleMessage dispatches to the DHT and Bitswap subsystems.
func (n *Node) HandleMessage(from simnet.NodeID, msg any) {
	if n.MessageTap != nil {
		n.MessageTap(from, msg)
	}
	if n.DHT.HandleMessage(from, msg) {
		return
	}
	n.Bitswap.HandleMessage(from, msg)
}

// PeerConnected implements simnet.Handler.
func (n *Node) PeerConnected(p simnet.NodeID) {
	if n.ConnTap != nil {
		n.ConnTap(p, true)
	}
	n.Bitswap.PeerConnected(p)
}

// PeerDisconnected implements simnet.Handler.
func (n *Node) PeerDisconnected(p simnet.NodeID) {
	if n.ConnTap != nil {
		n.ConnTap(p, false)
	}
	n.Bitswap.PeerDisconnected(p)
}

// Start bootstraps the DHT and arms the periodic refresh loop.
func (n *Node) Start(bootstrap []dht.PeerInfo) {
	n.running = true
	n.DHT.Bootstrap(bootstrap, nil)
	n.scheduleRefresh()
}

// Stop halts periodic maintenance (used before taking the node offline).
func (n *Node) Stop() { n.running = false }

// Online reports whether the node is online in the network.
func (n *Node) Online() bool { return n.net.IsOnline(n.ID) }

// GoOffline models churn: the node leaves the network, dropping all
// connections. Its blockstore persists (as on a real host).
func (n *Node) GoOffline() {
	n.Stop()
	_ = n.net.SetOnline(n.ID, false)
}

// GoOnline rejoins the network and re-bootstraps.
func (n *Node) GoOnline(bootstrap []dht.PeerInfo) {
	_ = n.net.SetOnline(n.ID, true)
	n.Start(bootstrap)
}

func (n *Node) scheduleRefresh() {
	// Jitter the period ±10% so refreshes don't synchronise network-wide.
	jitter := 0.9 + 0.2*n.rng.Float64()
	d := time.Duration(float64(n.cfg.RefreshInterval) * jitter)
	n.net.AfterOn(n.ID, d, func() {
		if !n.running || !n.Online() {
			return
		}
		n.DHT.Refresh(simnet.RandomNodeID(n.rng))
		n.scheduleRefresh()
	})
}

// Publish chunks content into the local store and announces the root to
// the DHT. It returns the root CID. The store keeps the DAG's interior nodes
// and only the CIDs of its Raw leaves (blockstore.KeepsBytes), so nothing
// holds content afterwards.
func (n *Node) Publish(content []byte) cid.CID {
	root, _ := n.builder.AddFile(content)
	n.DHT.Provide(dht.KeyForCID(root), nil)
	return root
}

// Fetch retrieves the whole DAG rooted at c (Fig. 1 + session-scoped
// children) and reports completion. A sampled tc traces the retrieval; a
// zero tc does not.
func (n *Node) Fetch(tc otrace.Ctx, c cid.CID, done func(ok bool)) {
	n.Bitswap.FetchDAG(tc, c, done)
}

// Request issues a bare root-block want (no DAG walk), traced as Fetch. The
// workload requests its single-block items this way.
func (n *Node) Request(tc otrace.Ctx, c cid.CID, done func(data []byte, ok bool)) {
	n.Bitswap.Get(tc, c, done)
}

// CancelRequest abandons an outstanding want.
func (n *Node) CancelRequest(c cid.CID) { n.Bitswap.Cancel(c) }

// Info returns the node's DHT identity.
func (n *Node) Info() dht.PeerInfo { return n.DHT.Self() }

// ConnectTo dials another node directly.
func (n *Node) ConnectTo(p simnet.NodeID) error { return n.net.Connect(n.ID, p) }
