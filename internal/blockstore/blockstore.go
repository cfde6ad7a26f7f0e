// Package blockstore provides the local block storage of an IPFS-like node:
// a thread-safe content-addressed store with a capacity budget, pinning, and
// LRU garbage collection (Sec. III-C of the paper: nodes store up to 10 GB of
// blocks by default, pinned CIDs are exempt from GC).
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
	cid    cid.CID
	data   []byte
	pinned bool
	elem   *list.Element // position in the LRU list; nil while pinned
}

// Store is a capacity-bounded, pin-aware block store. The zero value is not
// usable; construct with New.
type Store struct {
	mu       sync.Mutex
	capacity uint64
	used     uint64
	blocks   map[cid.CID]*entry
	lru      *list.List // front = most recently used; holds *entry

	hits   uint64
	misses uint64
	evicts uint64
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
		s.removeLocked(victim)
		s.evicts++
	}
	return nil
}

func (s *Store) removeLocked(e *entry) {
	if e.elem != nil {
		s.lru.Remove(e.elem)
	}
	delete(s.blocks, e.cid)
	s.used -= uint64(len(e.data))
}

// Get returns the block stored under c, marking it recently used. The bytes
// are the stored block itself, shared with every other holder: read them,
// never write them.
func (s *Store) Get(c cid.CID) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[c]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	return e.data, true
}

// GetBlock implements merkledag.BlockSource. Like Get, it returns shared
// bytes that must not be modified.
func (s *Store) GetBlock(c cid.CID) ([]byte, bool) { return s.Get(c) }

// Has reports block presence without touching recency or hit statistics.
// This is the check a node performs when answering WANT_HAVE, and the check
// the TPI privacy attack exploits.
func (s *Store) Has(c cid.CID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[c]
	return ok
}

// Pin marks c exempt from garbage collection. Pinning an absent CID is an
// error.
func (s *Store) Pin(c cid.CID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[c]
	if !ok {
		return fmt.Errorf("blockstore: pin %s: not stored", c)
	}
	if !e.pinned {
		e.pinned = true
		s.lru.Remove(e.elem)
		e.elem = nil
	}
	return nil
}

// Unpin makes c eligible for garbage collection again.
func (s *Store) Unpin(c cid.CID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[c]
	if !ok || !e.pinned {
		return
	}
	e.pinned = false
	e.elem = s.lru.PushFront(e)
}

// Delete removes c regardless of pin status (the "manual cache removal"
// countermeasure of Sec. VI-C item 5).
func (s *Store) Delete(c cid.CID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.blocks[c]; ok {
		s.removeLocked(e)
	}
}

// GC evicts unpinned blocks until used bytes are at or below target.
func (s *Store) GC(target uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.used > target {
		back := s.lru.Back()
		if back == nil {
			return
		}
		if victim, ok := back.Value.(*entry); ok {
			s.removeLocked(victim)
			s.evicts++
		} else {
			return
		}
	}
}

// Keys returns all stored CIDs in unspecified order.
func (s *Store) Keys() []cid.CID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]cid.CID, 0, len(s.blocks))
	for c := range s.blocks {
		out = append(out, c)
	}
	return out
}

// Stats is a snapshot of store counters.
type Stats struct {
	Blocks   int
	Used     uint64
	Capacity uint64
	Hits     uint64
	Misses   uint64
	Evicts   uint64
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Blocks:   len(s.blocks),
		Used:     s.used,
		Capacity: s.capacity,
		Hits:     s.hits,
		Misses:   s.misses,
		Evicts:   s.evicts,
	}
}

// Len returns the number of stored blocks.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}
