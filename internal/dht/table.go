// Package dht implements the Kademlia-based distributed hash table used by
// IPFS for provider routing (Sec. III-A of the paper).
//
// Nodes operate as DHT servers (store records, answer RPCs, appear in other
// nodes' k-buckets) or DHT clients (query only; invisible to crawlers). The
// package also provides the k-bucket crawler used as the alternative network
// size indicator in Sec. V-C.
//
// Inside the package a peer is its simnet.NodeRef: k-buckets, FIND_NODE and
// GET_PROVIDERS answers and lookup candidates hold refs, and a peer's ID
// lives only in the node table (simnet.Table), which also keeps the ID's
// leading 8 bytes for bucketing and ranking. PeerInfo appears only at the
// edges: Bootstrap, Observe, provider records, FindProviders results and
// CrawlResult.
package dht

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"bitswapmon/internal/simnet"
)

// DefaultK is the Kademlia bucket size (and closest-set size); IPFS uses 20.
const DefaultK = 20

// PeerInfo identifies a DHT participant at the package's edges (bootstrap
// lists, provider records, search and crawl results). A peer's network
// address lives in the node table (engine.Engine.Addr).
type PeerInfo struct {
	ID simnet.NodeID
	// Server reports whether the peer operates in server mode. Client
	// peers are never stored in k-buckets.
	Server bool
}

// RoutingTable is a set of k-buckets indexed by the length of the common
// prefix with the local node ID. Peers are stored as refs into the node
// table, which holds each peer's ID and its leading 8 bytes: peers are
// bucketed and ranked by those 8 bytes, and a full ID is read only when two
// prefixes tie.
type RoutingTable struct {
	tab     *simnet.Table
	self    simnet.NodeRef
	selfKey uint64
	k       int
	// buckets is indexed by the common prefix length with the local ID, the
	// leading zero bits of the XOR distance. It grows only as far as the
	// highest bucket a peer was added to, so its last bucket is the highest
	// non-empty one (peers are never removed): in a network of n peers that
	// is about log2(n) buckets, not 257.
	buckets [][]simnet.NodeRef
	size    int

	// class holds the distance class AppendClosest is ranking, between
	// calls, so the hot FIND_NODE path does not allocate it each time. A
	// table is only ever used from its node's handler (one goroutine).
	class []rankedRef
}

// rankedRef is one stored peer ranked against AppendClosest's target: d is
// the first 8 bytes of the XOR distance.
type rankedRef struct {
	d   uint64
	ref simnet.NodeRef
}

// NewRoutingTable creates the routing table of node self, whose peers are
// registered in tab, with bucket size k (k <= 0 selects DefaultK).
func NewRoutingTable(tab *simnet.Table, self simnet.NodeRef, k int) *RoutingTable {
	if k <= 0 {
		k = DefaultK
	}
	return &RoutingTable{tab: tab, self: self, selfKey: tab.Key(self), k: k}
}

// bucketIndex returns the common prefix length of the local ID with an ID
// whose leading 8 bytes are key; id supplies the full ID on a prefix tie.
func (rt *RoutingTable) bucketIndex(key uint64, id func() simnet.NodeID) int {
	if x := rt.selfKey ^ key; x != 0 {
		return bits.LeadingZeros64(x)
	}
	return rt.tab.ID(rt.self).CommonPrefixLen(id())
}

// refIndex is bucketIndex for a registered peer.
func (rt *RoutingTable) refIndex(r simnet.NodeRef) int {
	return rt.bucketIndex(rt.tab.Key(r), func() simnet.NodeID { return rt.tab.ID(r) })
}

// bucket returns bucket i, nil for an index the table has not grown to.
func (rt *RoutingTable) bucket(i int) []simnet.NodeRef {
	if uint(i) < uint(len(rt.buckets)) {
		return rt.buckets[i]
	}
	return nil
}

// Add inserts a peer. Client peers and self are ignored; full buckets keep
// their existing members (classic Kademlia favours long-lived contacts).
// It reports whether the peer was newly inserted.
func (rt *RoutingTable) Add(r simnet.NodeRef, server bool) bool {
	if !server || r == rt.self {
		return false
	}
	idx := rt.refIndex(r)
	bucket := rt.bucket(idx)
	if slices.Contains(bucket, r) || len(bucket) >= rt.k {
		return false
	}
	if idx >= len(rt.buckets) {
		rt.buckets = append(rt.buckets, make([][]simnet.NodeRef, idx+1-len(rt.buckets))...)
	}
	rt.buckets[idx] = append(bucket, r)
	rt.size++
	return true
}

// AppendClosest appends to dst up to n peers closest to target in XOR
// distance, nearest first, and returns the extended slice; a dst with room
// for n more peers makes the call allocation-free. It runs on every
// FIND_NODE / GET_PROVIDERS a server answers, so it reads only the buckets
// the answer can come from. With b the length of the prefix target shares
// with the local ID, the stored peers fall into distance classes, every peer
// of one class nearer than every peer of the next:
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
func (rt *RoutingTable) AppendClosest(dst []simnet.NodeRef, target simnet.NodeID, n int) []simnet.NodeRef {
	if n <= 0 {
		return dst
	}
	end := len(dst) + min(n, rt.size)
	t8 := binary.BigEndian.Uint64(target[0:8])
	b := rt.bucketIndex(t8, func() simnet.NodeID { return target })
	top := len(rt.buckets) - 1
	if b <= top {
		dst = rt.appendClass(dst, end, target, t8, b, b)
		if len(dst) < end {
			dst = rt.appendClass(dst, end, target, t8, b+1, top)
		}
	}
	for i := min(b-1, top); i >= 0 && len(dst) < end; i-- {
		dst = rt.appendClass(dst, end, target, t8, i, i)
	}
	return dst
}

// appendClass appends to dst the peers of buckets lo..hi, which must form
// one distance class for target, nearest first, until dst reaches length
// end. t8 is target's leading 8 bytes.
func (rt *RoutingTable) appendClass(dst []simnet.NodeRef, end int, target simnet.NodeID, t8 uint64, lo, hi int) []simnet.NodeRef {
	// Peers are ranked by the first 8 distance bytes as one uint64; the
	// full 32-byte comparison runs only when two prefixes collide (distinct
	// IDs always differ somewhere, so ties stay deterministic). The class
	// is kept sorted and cut at the need peers dst still has room for.
	need := end - len(dst)
	class := rt.class[:0]
	for i := lo; i <= hi; i++ {
		for _, ref := range rt.buckets[i] {
			r := rankedRef{t8 ^ rt.tab.Key(ref), ref}
			before := func(q rankedRef) bool {
				return r.d < q.d || (r.d == q.d &&
					simnet.DistanceCompare(target, rt.tab.ID(r.ref), rt.tab.ID(q.ref)) < 0)
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
		dst = append(dst, r.ref)
	}
	rt.class = class[:0]
	return dst
}

// SortByDistance sorts peers in place by XOR distance to target, as a
// provider search orders its results. The order is deterministic without an
// explicit tie-break: equal XOR distance to a fixed target implies equal IDs.
func SortByDistance(peers []PeerInfo, target simnet.NodeID) {
	slices.SortFunc(peers, func(a, b PeerInfo) int {
		return simnet.DistanceCompare(target, a.ID, b.ID)
	})
}
