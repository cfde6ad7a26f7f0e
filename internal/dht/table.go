// Package dht implements the Kademlia-based distributed hash table used by
// IPFS for provider routing (Sec. III-A of the paper).
//
// Nodes operate as DHT servers (store records, answer RPCs, appear in other
// nodes' k-buckets) or DHT clients (query only; invisible to crawlers). The
// package also provides the k-bucket crawler used as the alternative network
// size indicator in Sec. V-C.
package dht

import (
	"encoding/binary"
	"slices"

	"bitswapmon/internal/simnet"
)

// DefaultK is the Kademlia bucket size (and closest-set size); IPFS uses 20.
const DefaultK = 20

// PeerInfo identifies a DHT participant. It holds no pointer: every
// FIND_NODE answer copies up to k of them, and a pointer-free slice is never
// scanned by the GC nor written through write barriers. A peer's network
// address lives in the node table (engine.Engine.Addr).
type PeerInfo struct {
	ID simnet.NodeID
	// Server reports whether the peer operates in server mode. Client
	// peers are never stored in k-buckets.
	Server bool
}

// RoutingTable is a set of k-buckets indexed by the length of the common
// prefix with the local node ID.
type RoutingTable struct {
	self simnet.NodeID
	k    int
	// buckets is indexed by the LeadingZeros of the XOR distance. It grows
	// only as far as the highest bucket a peer was ever added to: in a
	// network of n peers that is about log2(n) buckets, not 257.
	buckets [][]PeerInfo
	size    int
	// top is the highest non-empty bucket index, -1 for an empty table:
	// Closest never looks above it.
	top int

	// class holds the distance class Closest is ranking, between calls, so
	// the hot FIND_NODE path does not allocate it each time. A table is
	// only ever used from its node's handler (one goroutine).
	class []peerRef
}

// peerRef ranks one stored peer against Closest's target: d is the first 8
// bytes of the XOR distance, and the peer is buckets[bucket][slot]. It holds
// no pointer, so shifting refs costs no write barrier and the scratch slice
// is never scanned.
type peerRef struct {
	d            uint64
	bucket, slot int32
}

// NewRoutingTable creates a routing table for self with bucket size k
// (k <= 0 selects DefaultK).
func NewRoutingTable(self simnet.NodeID, k int) *RoutingTable {
	if k <= 0 {
		k = DefaultK
	}
	return &RoutingTable{self: self, k: k, top: -1}
}

func (rt *RoutingTable) bucketIndex(id simnet.NodeID) int {
	return rt.self.CommonPrefixLen(id)
}

// bucket returns bucket i, nil for an index the table has not grown to.
func (rt *RoutingTable) bucket(i int) []PeerInfo {
	if uint(i) < uint(len(rt.buckets)) {
		return rt.buckets[i]
	}
	return nil
}

// Add inserts a peer. Client peers and self are ignored; full buckets keep
// their existing members (classic Kademlia favours long-lived contacts).
// It reports whether the peer was newly inserted.
func (rt *RoutingTable) Add(p PeerInfo) bool {
	if !p.Server || p.ID == rt.self {
		return false
	}
	idx := rt.bucketIndex(p.ID)
	bucket := rt.bucket(idx)
	for _, existing := range bucket {
		if existing.ID == p.ID {
			return false
		}
	}
	if len(bucket) >= rt.k {
		return false
	}
	if idx >= len(rt.buckets) {
		rt.buckets = append(rt.buckets, make([][]PeerInfo, idx+1-len(rt.buckets))...)
	}
	rt.buckets[idx] = append(bucket, p)
	rt.size++
	rt.top = max(rt.top, idx)
	return true
}

// Remove drops a peer (e.g. observed dead).
func (rt *RoutingTable) Remove(id simnet.NodeID) {
	idx := rt.bucketIndex(id)
	bucket := rt.bucket(idx)
	for i, p := range bucket {
		if p.ID == id {
			rt.buckets[idx] = slices.Delete(bucket, i, i+1)
			rt.size--
			for rt.top >= 0 && len(rt.buckets[rt.top]) == 0 {
				rt.top--
			}
			return
		}
	}
}

// Contains reports whether id is present.
func (rt *RoutingTable) Contains(id simnet.NodeID) bool {
	for _, p := range rt.bucket(rt.bucketIndex(id)) {
		if p.ID == id {
			return true
		}
	}
	return false
}

// Size returns the number of stored peers.
func (rt *RoutingTable) Size() int { return rt.size }

// Closest returns up to n peers closest to target in XOR distance, nearest
// first. It runs on every FIND_NODE / GET_PROVIDERS a server answers, so it
// reads only the buckets the answer can come from. With b the length of the
// prefix target shares with the local ID, the stored peers fall into distance
// classes, every peer of one class nearer than every peer of the next:
//
//  1. bucket b: its peers differ from the local ID at bit b, as target does,
//     so they share more than b bits with target;
//  2. buckets above b, as one class: their peers agree with the local ID at
//     bit b, so each shares exactly b bits with target;
//  3. buckets b-1 down to 0, one class each: a peer of bucket i shares
//     exactly i bits with target.
//
// Classes are ranked one at a time and the walk stops at the class that
// fills the result: for a random target that is one full bucket half the
// time. A lookup of the local ID itself (b = 256) has empty classes 1 and 2
// and walks down from the highest non-empty bucket.
func (rt *RoutingTable) Closest(target simnet.NodeID, n int) []PeerInfo {
	if n <= 0 {
		return nil
	}
	n = min(n, rt.size)
	out := make([]PeerInfo, 0, n)
	b := rt.bucketIndex(target)
	if b <= rt.top {
		out = rt.appendClosest(out, n, target, b, b)
		if len(out) < n {
			out = rt.appendClosest(out, n, target, b+1, rt.top)
		}
	}
	for i := min(b-1, rt.top); i >= 0 && len(out) < n; i-- {
		out = rt.appendClosest(out, n, target, i, i)
	}
	return out
}

// appendClosest appends to out the peers of buckets lo..hi, which must form
// one distance class for target, nearest first, until out holds n.
func (rt *RoutingTable) appendClosest(out []PeerInfo, n int, target simnet.NodeID, lo, hi int) []PeerInfo {
	// Peers are ranked by the first 8 distance bytes as one uint64; the
	// full 32-byte comparison runs only when two prefixes collide (distinct
	// IDs always differ somewhere, so ties stay deterministic). The class
	// is kept sorted and cut at the need peers out still has room for.
	t8 := binary.BigEndian.Uint64(target[0:8])
	need := n - len(out)
	class := rt.class[:0]
	for i := lo; i <= hi; i++ {
		bucket := rt.buckets[i]
		for j := range bucket {
			id := &bucket[j].ID
			r := peerRef{t8 ^ binary.BigEndian.Uint64(id[0:8]), int32(i), int32(j)}
			before := func(q peerRef) bool {
				return r.d < q.d || (r.d == q.d &&
					simnet.DistanceCompare(target, *id, rt.buckets[q.bucket][q.slot].ID) < 0)
			}
			pos := len(class)
			if pos < need {
				class = append(class, r)
			} else if pos--; !before(class[pos]) {
				continue // class is full and r is no nearer than its last
			}
			for ; pos > 0 && before(class[pos-1]); pos-- {
				class[pos] = class[pos-1]
			}
			class[pos] = r
		}
	}
	for _, r := range class {
		out = append(out, rt.buckets[r.bucket][r.slot])
	}
	rt.class = class[:0]
	return out
}

// All returns every stored peer, ordered by bucket then insertion.
func (rt *RoutingTable) All() []PeerInfo {
	out := make([]PeerInfo, 0, rt.size)
	for i := range rt.buckets {
		out = append(out, rt.buckets[i]...)
	}
	return out
}

// Bucket returns a copy of the bucket holding peers at common-prefix-length
// cpl (used by the crawler to enumerate tables).
func (rt *RoutingTable) Bucket(cpl int) []PeerInfo {
	return append([]PeerInfo(nil), rt.bucket(cpl)...)
}

// SortByDistance sorts peers in place by XOR distance to target. The order
// is deterministic without an explicit tie-break: equal XOR distance to a
// fixed target implies equal IDs. The comparator compares distances byte by
// byte without materializing them, and slices.SortFunc avoids the reflection
// swap path of sort.Slice — together the dominant costs of the previous
// implementation on the lookup hot path.
func SortByDistance(peers []PeerInfo, target simnet.NodeID) {
	slices.SortFunc(peers, func(a, b PeerInfo) int {
		return simnet.DistanceCompare(target, a.ID, b.ID)
	})
}
