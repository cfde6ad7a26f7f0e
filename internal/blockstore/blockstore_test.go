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
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Blocks != 1 {
		t.Errorf("stats = %+v", st)
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
	if a.Stats().Used != uint64(len(data)) || b.Stats().Used != uint64(len(data)) {
		t.Errorf("used = %d and %d, want %d each", a.Stats().Used, b.Stats().Used, len(data))
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
	if st := s.Stats(); st.Used != uint64(len(data)) || st.Blocks != 1 {
		t.Errorf("duplicate Put changed accounting: %+v", st)
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
	if s.Stats().Evicts != 1 {
		t.Errorf("evicts = %d", s.Stats().Evicts)
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
	s.GC(0)
	if !s.Has(c0) {
		t.Error("pinned block GCed")
	}
	if s.Len() != 1 {
		t.Errorf("GC(0) left %d blocks, want only the pinned one", s.Len())
	}
	s.Unpin(c0)
	s.GC(0)
	if s.Has(c0) {
		t.Error("unpinned block survived GC(0)")
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

func TestDeleteRemovesEvenPinned(t *testing.T) {
	s := New(100)
	c, d := blk("secret")
	if err := s.Put(c, d); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(c); err != nil {
		t.Fatal(err)
	}
	s.Delete(c)
	if s.Has(c) {
		t.Error("Delete left pinned block")
	}
	s.Delete(c) // idempotent
}

func TestKeys(t *testing.T) {
	s := New(1024)
	want := map[cid.CID]bool{}
	for i := 0; i < 5; i++ {
		c, d := blk(fmt.Sprintf("k%d", i))
		want[c] = true
		if err := s.Put(c, d); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 5 {
		t.Fatalf("Keys() = %d entries", len(keys))
	}
	for _, c := range keys {
		if !want[c] {
			t.Errorf("unexpected key %s", c)
		}
	}
}

func TestHasDoesNotAffectStats(t *testing.T) {
	s := New(100)
	c, d := blk("probe")
	if err := s.Put(c, d); err != nil {
		t.Fatal(err)
	}
	s.Has(c)
	s.Has(cid.Sum(cid.Raw, []byte("ghost")))
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Has affected hit stats: %+v", st)
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
	if s.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", s.Len(), 8*200)
	}
}

func TestDefaultCapacity(t *testing.T) {
	s := New(0)
	if s.Stats().Capacity != DefaultCapacity {
		t.Errorf("capacity = %d", s.Stats().Capacity)
	}
}
