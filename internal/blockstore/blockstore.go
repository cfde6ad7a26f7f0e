// Package blockstore provides the local block storage of an IPFS-like node:
// a thread-safe set of the blocks a node holds (Sec. III-C of the paper).
//
// The monitors see want-list CIDs only (Sec. IV-A), so no measured quantity
// depends on what a block contains. A store therefore keeps bytes only where
// a DAG walk reads them: a DagProtobuf node keeps its encoding, and every
// other block is its CID alone (KeepsBytes). The simulated stores never come
// near a real node's 10 GB budget, so a store neither evicts nor pins.
//
// Kept bytes are immutable. A store keeps the very slice it is given, so one
// node's bytes can be held by the publisher's store, every message that
// carries the block and every store that receives it.
package blockstore

import (
	"sync"

	"bitswapmon/internal/cid"
)

// KeepsBytes reports whether a holder of block c keeps its bytes. Only a
// DagProtobuf node's are kept, because a DAG walk decodes its links; Raw
// leaves and single-block Raw, DagCBOR, GitRaw, EthereumTx and DagJSON items
// are their CIDs alone. Every path that stores a block decides by this.
func KeepsBytes(c cid.CID) bool { return c.Codec() == cid.DagProtobuf }

// Store is the set of blocks a node holds, with the bytes of those that
// KeepsBytes keeps. The zero value is not usable; construct with New.
type Store struct {
	mu     sync.Mutex
	blocks map[cid.CID][]byte
}

// New returns an empty Store.
func New() *Store {
	return &Store{blocks: make(map[cid.CID][]byte)}
}

// Put stores block c, with data if KeepsBytes(c) and without bytes
// otherwise. Storing an already-present block changes nothing.
//
// The store keeps data itself, not a copy: neither the caller nor anyone
// else may modify data after Put.
func (s *Store) Put(c cid.CID, data []byte) {
	if !KeepsBytes(c) {
		data = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blocks[c]; !ok {
		s.blocks[c] = data
	}
}

// Get returns the block stored under c: its kept bytes, or nil for a block
// that is its CID alone. The bytes are shared with every other holder: read
// them, never write them.
func (s *Store) Get(c cid.CID) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.blocks[c]
	return data, ok
}

// Has reports block presence. This is the check a node performs when
// answering WANT_HAVE, and the check the TPI privacy attack exploits.
func (s *Store) Has(c cid.CID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[c]
	return ok
}

// Len returns the number of blocks stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}
