// Package blockstore provides the local block storage of an IPFS-like node:
// a thread-safe content-addressed store with a capacity budget that evicts
// the least recently used blocks, except pinned ones (Sec. III-C of the
// paper: nodes store up to 10 GB of blocks by default, pinned CIDs are
// exempt from garbage collection).
//
// Block bytes are immutable. A store keeps the very slice it is given, so
// one block's bytes can be held by the publisher's store, every message that
// carries the block and every store that receives it. Capacity counts the
// logical bytes of each store's blocks, whether or not another store shares
// them.
package blockstore

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"bitswapmon/internal/cid"
)

// DefaultCapacity is the default storage budget in bytes. The real default is
// 10 GB; simulations typically configure far less.
const DefaultCapacity = 10 << 30

// ErrBlockTooLarge is returned when a single block exceeds the capacity.
var ErrBlockTooLarge = errors.New("blockstore: block exceeds capacity")

type entry struct {
	cid  cid.CID
	data []byte
	elem *list.Element // position in the LRU list; nil once pinned
}

// Store is a capacity-bounded, pin-aware block store. The zero value is not
// usable; construct with New.
type Store struct {
	mu       sync.Mutex
	capacity uint64
	used     uint64
	blocks   map[cid.CID]*entry
	lru      *list.List // front = most recently used; holds *entry
}

// New returns a Store with the given capacity in bytes. capacity <= 0 selects
// DefaultCapacity.
func New(capacity int64) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: uint64(capacity),
		blocks:   make(map[cid.CID]*entry),
		lru:      list.New(),
	}
}

// Put stores data under c, evicting least-recently-used unpinned blocks if
// needed. Storing an already-present block refreshes its recency.
//
// The store keeps data itself, not a copy: neither the caller nor anyone
// else may modify data after Put.
func (s *Store) Put(c cid.CID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	if uint64(len(data)) > s.capacity {
		return fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), s.capacity)
	}
	if e, ok := s.blocks[c]; ok {
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		return nil
	}
	if err := s.reserveLocked(uint64(len(data))); err != nil {
		return err
	}
	e := &entry{cid: c, data: data}
	e.elem = s.lru.PushFront(e)
	s.blocks[c] = e
	s.used += uint64(len(data))
	return nil
}

// PutBlock implements merkledag.BlockSink. Like Put, it keeps data, which
// must not be modified afterwards.
func (s *Store) PutBlock(c cid.CID, data []byte) error { return s.Put(c, data) }

// reserveLocked evicts unpinned LRU blocks until size bytes fit.
func (s *Store) reserveLocked(size uint64) error {
	for s.used+size > s.capacity {
		back := s.lru.Back()
		if back == nil {
			return fmt.Errorf("%w: pinned data fills store", ErrBlockTooLarge)
		}
		victim, ok := back.Value.(*entry)
		if !ok {
			return errors.New("blockstore: corrupt LRU list")
		}
		s.lru.Remove(victim.elem)
		delete(s.blocks, victim.cid)
		s.used -= uint64(len(victim.data))
	}
	return nil
}

// Get returns the block stored under c, marking it recently used. The bytes
// are the stored block itself, shared with every other holder: read them,
// never write them.
func (s *Store) Get(c cid.CID) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[c]
	if !ok {
		return nil, false
	}
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	return e.data, true
}

// GetBlock implements merkledag.BlockSource. Like Get, it returns shared
// bytes that must not be modified.
func (s *Store) GetBlock(c cid.CID) ([]byte, bool) { return s.Get(c) }

// Has reports block presence without touching recency.
// This is the check a node performs when answering WANT_HAVE, and the check
// the TPI privacy attack exploits.
func (s *Store) Has(c cid.CID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[c]
	return ok
}

// Pin exempts c from eviction for the store's lifetime. Pinning an absent
// CID is an error.
func (s *Store) Pin(c cid.CID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[c]
	if !ok {
		return fmt.Errorf("blockstore: pin %s: not stored", c)
	}
	if e.elem != nil {
		s.lru.Remove(e.elem)
		e.elem = nil
	}
	return nil
}
