package trace

import (
	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
)

// Symbols numbers the peers and CIDs of one analysis pass densely, in
// first-seen order from 0, so that the pass's consumers can keep their
// state in slices and integer-keyed sets instead of maps keyed by the
// 32-byte NodeID or the CID string. Consumers fed the same entry one after
// another (the reports behind one report.Driver) share one Symbols: the
// first resolves the entry's peer and CID with a map probe each, the rest
// hit the last-resolved memo and pay a comparison.
//
// A Symbols keeps every distinct peer and CID it has resolved, so it must
// not outlive the pass it numbers: a Driver owns one for its run, each
// window of a WindowedDriver owns one that dies with the window, and a
// stand-alone Summarizer or popularity.Counter owns a private one. Ids are
// only meaningful to the Symbols that issued them. Not safe for concurrent
// use.
type Symbols struct {
	peers map[simnet.NodeID]uint32
	cids  map[cid.CID]uint32

	// The value resolved last and its id; valid once the matching map is
	// non-empty.
	lastPeer   simnet.NodeID
	lastPeerID uint32
	lastCID    cid.CID
	lastCIDID  uint32
}

// NewSymbols returns an empty numbering.
func NewSymbols() *Symbols {
	return &Symbols{
		peers: make(map[simnet.NodeID]uint32),
		cids:  make(map[cid.CID]uint32),
	}
}

// Peer returns the id of a peer, assigning the next one on first sight.
func (s *Symbols) Peer(id simnet.NodeID) uint32 {
	if len(s.peers) != 0 && id == s.lastPeer {
		return s.lastPeerID
	}
	n, ok := s.peers[id]
	if !ok {
		n = uint32(len(s.peers))
		s.peers[id] = n
	}
	s.lastPeer, s.lastPeerID = id, n
	return n
}

// CID returns the id of a CID, assigning the next one on first sight. The
// undefined CID is a value like any other.
func (s *Symbols) CID(c cid.CID) uint32 {
	if len(s.cids) != 0 && c == s.lastCID {
		return s.lastCIDID
	}
	n, ok := s.cids[c]
	if !ok {
		n = uint32(len(s.cids))
		s.cids[c] = n
	}
	s.lastCID, s.lastCIDID = c, n
	return n
}

// EachCID calls f for every CID numbered so far, in no particular order. It
// is how a consumer turns its ids back into CIDs once the pass is over;
// Symbols keeps no id → CID table for it, only the map it already needs.
func (s *Symbols) EachCID(f func(id uint32, c cid.CID)) {
	for c, id := range s.cids {
		f(id, c)
	}
}

// idSet is a set of Symbols ids: a bitmap that grows to the largest id
// added, with the cardinality kept beside it.
type idSet struct {
	bits []uint64
	n    int
}

func (s *idSet) add(id uint32) {
	w := int(id >> 6)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	if m := uint64(1) << (id & 63); s.bits[w]&m == 0 {
		s.bits[w] |= m
		s.n++
	}
}
