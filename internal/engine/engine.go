// Package engine defines the narrow simulation-engine surface the protocol
// layers (bitswap, dht, node, monitor, workload, ...) depend on, decoupling
// them from any one event-loop implementation.
//
// Two implementations exist:
//
//   - internal/simnet.Network — the single-threaded deterministic reference:
//     one event heap, handlers run on the caller's goroutine, bit-for-bit
//     reproducible per seed.
//   - Sharded (this package) — a multi-core engine that partitions the node
//     population across worker shards and synchronizes them with conservative
//     lookahead windows derived from the minimum cross-shard latency.
//
// Both embed one node table, simnet.Table: membership, connections and base
// latency, with the connect rule and the send- and delivery-side connection
// checks written once. What differs is only the event loop, the clock, the
// jitter stream (serial: the root RNG; sharded: a per-shard splitmix64) and
// notification timing: the serial engine calls PeerConnected and
// PeerDisconnected synchronously, the sharded one runs them as events on the
// node's owner shard.
//
// There is one contract: both implement every method of Engine, tracing
// included, so no layer probes for a capability or carries a fallback. The
// interface is split into the small capabilities — Clock, Timers, Rand,
// Transport, Tracing and the connection table — so a layer that only needs
// timers can be tested against a stub exposing just those.
//
// There is one exact clock: EventTime(id) is the virtual time of the event
// executing for node id, on either engine. Anything that stamps a record —
// a trace entry, a span, a cache expiry — reads EventTime. Now is the run
// loop's clock; the sharded engine advances it once per lookahead window,
// so it is only for orchestration between events (samplers, deadlines).
//
// # Affinity
//
// The single semantic addition over the historical *simnet.Network API is
// node affinity: AfterOn/Post tie a scheduled function to the node whose
// state it touches. The serial engine ignores the hint (everything runs on
// one goroutine anyway); the sharded engine uses it to run the function on
// the shard that owns the node, which is what makes per-node protocol state
// (bitswap want maps, DHT routing tables, ...) safe without any locking in
// the protocol layers. The rule for layer code is simple: schedule work that
// touches a node's state with AfterOn(id, ...) or Post(id, ...); use the
// plain After/At only for global orchestration (samplers, workload control
// loops), which the sharded engine serializes on its control shard.
package engine

import (
	"math/rand"
	"time"

	"bitswapmon/internal/simnet"
)

// NodeID identifies a node; aliased from simnet, where the ID math
// (XOR distance, uniform mapping) lives.
type NodeID = simnet.NodeID

// Region is a coarse geographic location, aliased from simnet.
type Region = simnet.Region

// Handler is the per-node behaviour callback surface, aliased from simnet.
type Handler = simnet.Handler

// Clock exposes virtual time. The sharded engine quantizes Now to the
// current lookahead window's start; the serial engine is exact. Event code
// that records a time reads Tracing.EventTime instead.
type Clock interface {
	Now() time.Time
}

// Timers schedules functions in virtual time.
type Timers interface {
	// After schedules fn after d of virtual time with control affinity:
	// the sharded engine runs it on the control shard, serialized with all
	// other control-affine work.
	After(d time.Duration, fn func())
	// At schedules fn at an absolute virtual time (clamped to now),
	// with control affinity.
	At(t time.Time, fn func())
	// AfterOn schedules fn after d of virtual time on the shard owning id.
	// Use it for any function that touches the node's protocol state.
	AfterOn(id NodeID, d time.Duration, fn func())
	// Post schedules fn to run as soon as possible on the shard owning id
	// (the cross-shard marshalling primitive).
	Post(id NodeID, fn func())
}

// Rand derives labelled deterministic RNG streams from the engine seed.
// Not safe to call while the engine is running a sharded simulation; derive
// streams at build time or between Run calls.
type Rand interface {
	NewRand(name string) *rand.Rand
}

// Transport delivers messages between connected nodes after the modelled
// latency.
type Transport interface {
	Send(from, to NodeID, msg any) error
}

// ConnTable is the connection-table surface: who is connected to whom.
type ConnTable interface {
	// Connect establishes a bidirectional connection (capacity-checked).
	Connect(a, b NodeID) error
	// Disconnect tears down the connection between a and b, if any.
	Disconnect(a, b NodeID)
	// Connected reports whether a and b share a connection.
	Connected(a, b NodeID) bool
	// Peers returns a snapshot of a node's connected peers, sorted by ID.
	Peers(id NodeID) []NodeID
	// PeersEach calls fn for each connected peer of id in ascending NodeID
	// order, stopping early when fn returns false. Unlike Peers it does not
	// copy: it iterates the node's published, immutable peer set, so
	// broadcast loops run allocation-free.
	PeersEach(id NodeID, fn func(NodeID) bool)
	// PeerCount returns the size of a node's connection table.
	PeerCount(id NodeID) int
}

// Membership manages the node population.
type Membership interface {
	// AddNode registers a node. maxConns of 0 means unlimited connections.
	// Call it at build time or between Run calls, never from event code.
	AddNode(id NodeID, addr string, region Region, maxConns int, h Handler) error
	// Pin hints that the node's events should run on the control shard
	// (no-op for the serial engine). Monitors and gateways pin themselves:
	// their state is also touched by control-affine orchestration code.
	// Pin before the first Run, right after AddNode.
	Pin(id NodeID)
	// SetOnline flips a node's availability; offline tears down connections.
	SetOnline(id NodeID, online bool) error
	// IsOnline reports a node's availability.
	IsOnline(id NodeID) bool
	// Addr returns a node's network address.
	Addr(id NodeID) (string, bool)
	// NodeRegion returns a node's region.
	NodeRegion(id NodeID) (Region, bool)
	// Nodes returns the IDs of all registered nodes, sorted by ID.
	Nodes() []NodeID
}

// Runner advances the simulation. Run and RunUntil may only be called from
// one goroutine at a time, never from event code.
type Runner interface {
	Run(d time.Duration)
	RunUntil(deadline time.Time)
	// Stats reports (delivered, dropped) message counters.
	Stats() (delivered, dropped uint64)
}

// Engine is the full surface a simulation world plugs into.
type Engine interface {
	Clock
	Timers
	Rand
	Transport
	Tracing
	ConnTable
	Membership
	Runner
}

// The serial reference implementation satisfies the interface.
var _ Engine = (*simnet.Network)(nil)
