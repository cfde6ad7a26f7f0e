// Package engine names the simulation engine the protocol layers (bitswap,
// dht, node, monitor, workload, ...) run on: Engine is *simnet.Network. It is
// an alias, not an interface, so the layers call the network directly and
// each engine method is declared once, on simnet.Network.
//
// There is one engine: one node table, one event loop, one binary heap per
// shard. The shard count is its only axis, and serial is one shard. What
// differs between one shard and several is the clock, the jitter stream and
// notification timing:
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
	"time"

	"bitswapmon/internal/simnet"
)

// Engine is the network a simulation world plugs into.
type Engine = *simnet.Network

// ShardedFactory adapts simnet.NewSharded to the NewEngine hook of workload
// configs; replay always runs serial. ShardedFactory(1) builds the same
// one-shard network as simnet.New with the default latency model.
func ShardedFactory(shards int) func(start time.Time, seed int64) Engine {
	return func(start time.Time, seed int64) Engine {
		return simnet.NewSharded(start, seed, simnet.ShardedConfig{Shards: shards})
	}
}
