package blockstore

import (
	"fmt"
	"sync"
	"testing"

	"bitswapmon/internal/cid"
)

// blk returns a DagProtobuf-addressed block, whose bytes a store keeps.
func blk(s string) (cid.CID, []byte) {
	data := []byte(s)
	return cid.Sum(cid.DagProtobuf, data), data
}

func TestPutGet(t *testing.T) {
	s := New()
	c, data := blk("hello")
	s.Put(c, data)
	got, ok := s.Get(c)
	if !ok || string(got) != "hello" {
		t.Error("Get mismatch")
	}
	if !s.Has(c) {
		t.Error("Has = false")
	}
	if _, ok := s.Get(cid.Sum(cid.Raw, []byte("absent"))); ok {
		t.Error("Get of absent block succeeded")
	}
	if s.Len() != 1 {
		t.Errorf("%d blocks stored, want 1", s.Len())
	}
}

// TestOnlyDagProtobufKeepsBytes: a store keeps a DagProtobuf node's bytes
// and holds every other codec's block as its CID alone.
func TestOnlyDagProtobufKeepsBytes(t *testing.T) {
	s := New()
	data := []byte("block bytes")
	for _, codec := range []cid.Codec{cid.Raw, cid.DagProtobuf, cid.DagCBOR, cid.GitRaw, cid.EthereumTx, cid.DagJSON} {
		c := cid.Sum(codec, data)
		s.Put(c, data)
		got, ok := s.Get(c)
		if !ok || !s.Has(c) {
			t.Errorf("%v block not stored", codec)
		}
		if keep := codec == cid.DagProtobuf; KeepsBytes(c) != keep || (got != nil) != keep {
			t.Errorf("%v block: KeepsBytes %v, stored %d bytes", codec, KeepsBytes(c), len(got))
		}
	}
}

// TestPutKeepsCallerBytes: Put stores the caller's slice, not a copy, so
// two stores given one block share its bytes.
func TestPutKeepsCallerBytes(t *testing.T) {
	c, data := blk("shared block")
	a, b := New(), New()
	for _, s := range []*Store{a, b} {
		s.Put(c, data)
	}
	ga, _ := a.Get(c)
	gb, _ := b.Get(c)
	if &ga[0] != &data[0] || &gb[0] != &data[0] {
		t.Error("Get does not return the bytes given to Put")
	}
}

// TestPutIdempotent: a second Put of a block keeps the first one's bytes.
func TestPutIdempotent(t *testing.T) {
	s := New()
	c, data := blk("dup")
	s.Put(c, data)
	s.Put(c, []byte("dup"))
	if got, _ := s.Get(c); &got[0] != &data[0] || s.Len() != 1 {
		t.Errorf("duplicate Put replaced the block or added one: %d blocks", s.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c, d := blk(fmt.Sprintf("g%d-%d", g, i))
				s.Put(c, d)
				s.Get(c)
				s.Has(c)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Errorf("%d blocks stored, want %d", s.Len(), 8*200)
	}
}
