package trace

import (
	"math/bits"

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
// not outlive the pass it numbers: a Driver owns one for its run, and each
// pane of a WindowedDriver owns one that dies with the window that adopts
// it. Ids are only meaningful to the Symbols that issued them; Translate
// maps another Symbols' ids onto these, for merging state kept by ids. Not
// safe for concurrent use.
type Symbols struct {
	peers map[simnet.NodeID]uint32
	cids  map[cid.CID]uint32

	// The value resolved last and its id; valid once the matching map is
	// non-empty.
	lastPeer   simnet.NodeID
	lastPeerID uint32
	lastCID    cid.CID
	lastCIDID  uint32

	// The last translation built, and the sizes of its source when it was
	// built: ids are never withdrawn, so it still holds while the source
	// has numbered nothing new.
	tr                      *Translation
	trFrom                  *Symbols
	trFromPeers, trFromCIDs int
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

// Translation maps the ids one Symbols issued to the ids another issues
// for the same peers and CIDs, both indexed by the source id.
type Translation struct {
	Peers []uint32
	CIDs  []uint32
}

// Translate numbers every peer and CID from has numbered, assigning new
// ids here on first sight, and returns the map from from's ids to these.
// The reports of one pass share a Symbols, so when they merge another
// pass's state one after another, the first builds the translation and the
// rest get it back for a comparison of two sizes.
func (s *Symbols) Translate(from *Symbols) *Translation {
	if s.trFrom == from && s.trFromPeers == len(from.peers) && s.trFromCIDs == len(from.cids) {
		return s.tr
	}
	t := &Translation{Peers: make([]uint32, len(from.peers)), CIDs: make([]uint32, len(from.cids))}
	for p, id := range from.peers {
		t.Peers[id] = s.Peer(p)
	}
	for c, id := range from.cids {
		t.CIDs[id] = s.CID(c)
	}
	s.tr, s.trFrom, s.trFromPeers, s.trFromCIDs = t, from, len(from.peers), len(from.cids)
	return t
}

// idSet is a set of Symbols ids: a bitmap that grows to the largest id
// added, with the cardinality kept beside it. It is how a Summarizer
// counts distinct peers and CIDs exactly at one bit per id. The zero value
// is an empty set.
type idSet struct {
	bits []uint64
	n    int
}

// Add puts id in the set.
func (s *idSet) Add(id uint32) {
	w := int(id >> 6)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	if m := uint64(1) << (id & 63); s.bits[w]&m == 0 {
		s.bits[w] |= m
		s.n++
	}
}

// AddMapped adds every id of from, translated through to: a Translation's
// Peers or CIDs when from holds another Symbols' ids.
func (s *idSet) AddMapped(from *idSet, to []uint32) {
	for w, word := range from.bits {
		for ; word != 0; word &= word - 1 {
			s.Add(to[w<<6|bits.TrailingZeros64(word)])
		}
	}
}

// Len returns the number of ids in the set.
func (s *idSet) Len() int { return s.n }
