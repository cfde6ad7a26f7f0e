package blockstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"bitswapmon/internal/cid"
)

func blk(s string) (cid.CID, []byte) {
	data := []byte(s)
	return cid.Sum(cid.Raw, data), data
}

func TestPutGet(t *testing.T) {
	s := New(1024)
	c, data := blk("hello")
	if err := s.Put(c, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(c)
	if !ok || !bytes.Equal(got, data) {
		t.Error("Get mismatch")
	}
	if !s.Has(c) {
		t.Error("Has = false")
	}
	if _, ok := s.Get(cid.Sum(cid.Raw, []byte("absent"))); ok {
		t.Error("Get of absent block succeeded")
	}
	if len(s.blocks) != 1 {
		t.Errorf("%d blocks stored, want 1", len(s.blocks))
	}
}

// TestPutKeepsCallerBytes: Put stores the caller's slice, not a copy, and
// two stores given one block share its bytes while each counts them.
func TestPutKeepsCallerBytes(t *testing.T) {
	c, data := blk("shared block")
	a, b := New(1024), New(1024)
	for _, s := range []*Store{a, b} {
		if err := s.Put(c, data); err != nil {
			t.Fatal(err)
		}
	}
	ga, _ := a.Get(c)
	gb, _ := b.Get(c)
	if &ga[0] != &data[0] || &gb[0] != &data[0] {
		t.Error("Get does not return the bytes given to Put")
	}
	if a.used != uint64(len(data)) || b.used != uint64(len(data)) {
		t.Errorf("used = %d and %d, want %d each", a.used, b.used, len(data))
	}
}

func TestPutIdempotent(t *testing.T) {
	s := New(1024)
	c, data := blk("dup")
	if err := s.Put(c, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(c, data); err != nil {
		t.Fatal(err)
	}
	if s.used != uint64(len(data)) || len(s.blocks) != 1 {
		t.Errorf("duplicate Put changed accounting: used %d, %d blocks", s.used, len(s.blocks))
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(30)
	var cids []cid.CID
	for i := 0; i < 3; i++ {
		c, data := blk(fmt.Sprintf("block-%d!", i)) // 8 bytes each
		cids = append(cids, c)
		if err := s.Put(c, data); err != nil {
			t.Fatal(err)
		}
	}
	// Touch block 0 so block 1 is LRU.
	if _, ok := s.Get(cids[0]); !ok {
		t.Fatal("block 0 missing")
	}
	c3, d3 := blk("block-3!")
	if err := s.Put(c3, d3); err != nil {
		t.Fatal(err)
	}
	if s.Has(cids[1]) {
		t.Error("LRU block 1 survived eviction")
	}
	if !s.Has(cids[0]) || !s.Has(cids[2]) || !s.Has(c3) {
		t.Error("wrong block evicted")
	}
}

func TestPinningExemptsFromGC(t *testing.T) {
	s := New(30)
	c0, d0 := blk("pinned00")
	if err := s.Put(c0, d0); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(c0); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	for i := 0; i < 10; i++ {
		c, d := blk(fmt.Sprintf("filler%02d", i))
		if err := s.Put(c, d); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Has(c0) {
		t.Error("pinned block evicted")
	}
}

func TestPinAbsent(t *testing.T) {
	s := New(100)
	if err := s.Pin(cid.Sum(cid.Raw, []byte("nope"))); err == nil {
		t.Error("Pin of absent block succeeded")
	}
}

func TestBlockTooLarge(t *testing.T) {
	s := New(10)
	c, _ := blk("x")
	if err := s.Put(c, make([]byte, 11)); err == nil {
		t.Error("oversized Put succeeded")
	}
}

func TestPinnedDataFillsStore(t *testing.T) {
	s := New(16)
	c0, d0 := blk("12345678")
	c1, d1 := blk("abcdefgh")
	if err := s.Put(c0, d0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(c1, d1); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(c0); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(c1); err != nil {
		t.Fatal(err)
	}
	c2, d2 := blk("overflow")
	if err := s.Put(c2, d2); err == nil {
		t.Error("Put succeeded with store full of pins")
	}
}

// TestHasDoesNotAffectStats: Has, the TPI attack's probe, leaves the LRU
// order as it was, so probing a block does not save it from eviction.
func TestHasDoesNotAffectStats(t *testing.T) {
	s := New(16)
	c0, d0 := blk("probe-00")
	c1, d1 := blk("probe-01")
	for _, b := range []struct {
		c cid.CID
		d []byte
	}{{c0, d0}, {c1, d1}} {
		if err := s.Put(b.c, b.d); err != nil {
			t.Fatal(err)
		}
	}
	s.Has(c0)
	s.Has(cid.Sum(cid.Raw, []byte("ghost")))
	c2, d2 := blk("probe-02")
	if err := s.Put(c2, d2); err != nil {
		t.Fatal(err)
	}
	if s.Has(c0) || !s.Has(c1) {
		t.Error("Has refreshed the probed block's recency")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c, d := blk(fmt.Sprintf("g%d-%d", g, i))
				if err := s.Put(c, d); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				s.Get(c)
				s.Has(c)
			}
		}(g)
	}
	wg.Wait()
	if len(s.blocks) != 8*200 {
		t.Errorf("%d blocks stored, want %d", len(s.blocks), 8*200)
	}
}

func TestDefaultCapacity(t *testing.T) {
	s := New(0)
	if s.capacity != DefaultCapacity {
		t.Errorf("capacity = %d", s.capacity)
	}
}
