package trace

import (
	"errors"
	"math"
	"math/bits"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
)

// Symbols numbers the peers and CIDs of an analysis pass densely from 0, so
// that the pass's consumers can keep their state in slices and
// integer-keyed sets instead of maps keyed by the 32-byte NodeID or the CID
// string. Consumers fed the same entry one after another (the reports
// behind one report.Driver) share one Symbols: the first resolves the
// entry's peer and CID with a map probe each, the rest hit the
// last-resolved memo and pay a comparison.
//
// Ids are only meaningful to the Symbols that issued them, so state kept by
// ids merges only with state numbered by the same Symbols. A Driver's pass
// never retires an id. A WindowedDriver shares one among its panes and,
// as it never ends, retires ids: it sets the epoch to k as it opens pane k,
// every resolve stamps its id with the current epoch, and once no open
// window holds a pane before k, Retire(k) frees the ids stamped before k
// for the next values first seen. Not safe for concurrent use; see CIDs
// for the one read allowed beside a writer.
type Symbols struct {
	peers numbering[simnet.NodeID]
	cids  numbering[cid.CID]
	epoch int64
}

// ErrOtherNumbering refuses a merge of state numbered by two Symbols.
var ErrOtherNumbering = errors.New("trace: merging state numbered by another Symbols")

// NewSymbols returns an empty numbering at epoch 0.
func NewSymbols() *Symbols {
	return &Symbols{
		peers: numbering[simnet.NodeID]{ids: make(map[simnet.NodeID]uint32)},
		cids:  numbering[cid.CID]{ids: make(map[cid.CID]uint32)},
	}
}

// Peer returns the id of a peer, assigning one on first sight.
func (s *Symbols) Peer(id simnet.NodeID) uint32 { return s.peers.resolve(id, s.epoch) }

// CID returns the id of a CID, assigning one on first sight. The undefined
// CID is a value like any other.
func (s *Symbols) CID(c cid.CID) uint32 { return s.cids.resolve(c, s.epoch) }

// CIDs returns the CID each id names, indexed by id (the undefined CID for
// a retired id). The slice is shared: a window closing beside the writer
// reads the slots of its panes' ids, which are not retired before that
// close is delivered, while the writer fills other slots or appends.
func (s *Symbols) CIDs() []cid.CID { return s.cids.keys }

// SetEpoch sets the epoch later resolves stamp their ids with; it never
// goes back.
func (s *Symbols) SetEpoch(epoch int64) { s.epoch = epoch }

// Retire frees the id of every peer and CID last resolved before epoch
// before, for reuse. The caller must hold no state by those ids.
func (s *Symbols) Retire(before int64) {
	s.peers.retire(before)
	s.cids.retire(before)
}

// numbering is one id space of a Symbols.
type numbering[K comparable] struct {
	ids    map[K]uint32
	keys   []K     // by id; the zero K for a retired id
	stamps []int64 // by id: the epoch it was last resolved in, or freeStamp
	free   []uint32
	last   K // the key resolved last and its id, valid while memo is set
	lastID uint32
	memo   bool
}

const freeStamp = math.MaxInt64 // a retired id's: never before an epoch

func (n *numbering[K]) resolve(k K, epoch int64) uint32 {
	if n.memo && k == n.last {
		n.stamps[n.lastID] = epoch
		return n.lastID
	}
	id, ok := n.ids[k]
	if !ok {
		if f := len(n.free); f > 0 {
			id = n.free[f-1]
			n.free = n.free[:f-1]
			n.keys[id] = k
		} else {
			id = uint32(len(n.keys))
			n.keys = append(n.keys, k)
			n.stamps = append(n.stamps, 0)
		}
		n.ids[k] = id
	}
	n.stamps[id] = epoch
	n.last, n.lastID, n.memo = k, id, true
	return id
}

func (n *numbering[K]) retire(before int64) {
	var zero K
	for id, at := range n.stamps {
		if at < before {
			delete(n.ids, n.keys[id])
			n.keys[id] = zero
			n.stamps[id] = freeStamp
			n.free = append(n.free, uint32(id))
		}
	}
	n.memo = false
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

// Or adds every id of from, a set of ids from the same Symbols.
func (s *idSet) Or(from *idSet) {
	if len(from.bits) > len(s.bits) {
		s.bits = append(s.bits, make([]uint64, len(from.bits)-len(s.bits))...)
	}
	for w, word := range from.bits {
		s.n += bits.OnesCount64(word &^ s.bits[w])
		s.bits[w] |= word
	}
}

// Len returns the number of ids in the set.
func (s *idSet) Len() int { return s.n }
