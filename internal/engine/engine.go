// Package engine defines the narrow simulation-engine surface the protocol
// layers (bitswap, dht, node, monitor, workload, ...) depend on, decoupling
// them from the event loop.
//
// There is one engine, internal/simnet.Network: one node table, one event
// loop, one binary heap per shard. The shard count is its only axis, and
// serial is one shard. What differs between one shard and several is the
// clock, the jitter stream and notification timing:
//
//   - One shard (simnet.New): the heap is drained inline on the caller's
//     goroutine, Now is exact at every event, jitter comes from the root
//     RNG, and PeerConnected/PeerDisconnected run synchronously. This is the
//     reference: bit-for-bit reproducible per seed.
//   - Several shards (ShardedFactory, simnet.NewSharded): the shards drain
//     their heaps in parallel over conservative lookahead windows derived
//     from the minimum cross-shard latency, Now is the window start, jitter
//     comes from a per-shard splitmix64 stream, and connection changes reach
//     handlers as events on the node's owner shard. Output is reproducible
//     per seed and shard count, and agrees with one shard statistically.
//
// There is one contract: Engine, tracing included, so no layer probes for a
// capability or carries a fallback. The interface is split into the small
// capabilities — Clock, Timers, Rand, Transport, Tracing and the connection
// table — so a layer that only needs timers can be tested against a stub
// exposing just those.
//
// There is one exact clock: EventTime(id) is the virtual time of the event
// executing for node id, at any shard count. Anything that stamps a record —
// a trace entry, a span, a cache expiry — reads EventTime. Now is the run
// loop's clock; with several shards it advances once per lookahead window,
// so it is only for orchestration between events (samplers, deadlines).
//
// # Affinity
//
// The single semantic addition over a plain event-loop API is node affinity:
// AfterOn/Post tie a scheduled function to the node whose state it touches.
// With one shard the hint changes nothing (everything runs on one
// goroutine); with several it runs the function on the shard that owns the
// node, which is what makes per-node protocol state (bitswap want maps, DHT
// routing tables, ...) safe without any locking in the protocol layers. The
// rule for layer code is simple: schedule work that touches a node's state
// with AfterOn(id, ...) or Post(id, ...); use the plain After/At only for
// global orchestration (samplers, workload control loops), which runs
// serialized on the control shard.
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

// Clock exposes virtual time. Now is exact with one shard and the current
// lookahead window's start with several. Event code that records a time
// reads Tracing.EventTime instead.
type Clock interface {
	Now() time.Time
}

// Timers schedules functions in virtual time.
type Timers interface {
	// After schedules fn after d of virtual time with control affinity:
	// it runs on the control shard, serialized with all other
	// control-affine work.
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
// Derive streams at build time or between Run calls, never from event code.
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
	// (a no-op with one shard). Monitors and gateways pin themselves:
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

var _ Engine = (*simnet.Network)(nil)

// ShardedFactory adapts simnet.NewSharded to the NewEngine hooks of workload
// and replay configs. ShardedFactory(1) builds the same one-shard network as
// simnet.New with the default latency model.
func ShardedFactory(shards int) func(start time.Time, seed int64) Engine {
	return func(start time.Time, seed int64) Engine {
		return simnet.NewSharded(start, seed, simnet.ShardedConfig{Shards: shards})
	}
}
