package merkledag

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"bitswapmon/internal/cid"
)

type memSink map[cid.CID][]byte

// walk traverses the DAG rooted at root in depth-first order, invoking visit
// for every node. Shared subgraphs are visited once.
func walk(src memSink, root cid.CID, visit func(c cid.CID, n *Node) error) error {
	seen := make(map[cid.CID]bool)
	var rec func(c cid.CID) error
	rec = func(c cid.CID) error {
		if seen[c] {
			return nil
		}
		seen[c] = true
		data, ok := src[c]
		if !ok {
			return fmt.Errorf("missing block %s", c)
		}
		node, err := DecodeNode(c.Codec(), data)
		if err != nil {
			return err
		}
		if err := visit(c, node); err != nil {
			return err
		}
		for _, l := range node.Links {
			if err := rec(l.CID); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(root)
}

// leafCIDs returns the CIDs of all leaf (Raw) blocks under root, in file
// order.
func leafCIDs(src memSink, root cid.CID) ([]cid.CID, error) {
	var out []cid.CID
	err := walk(src, root, func(c cid.CID, n *Node) error {
		if n.Kind == KindRaw {
			out = append(out, c)
		}
		return nil
	})
	return out, err
}

func (m memSink) Put(c cid.CID, data []byte) {
	m[c] = append([]byte(nil), data...)
}

func TestSingleChunkFile(t *testing.T) {
	sink := memSink{}
	b := NewBuilder(sink, 1024, 4)
	content := []byte("small file")
	root, size := b.AddFile(content)
	if size != uint64(len(content)) {
		t.Errorf("size = %d, want %d", size, len(content))
	}
	if root.Codec() != cid.Raw {
		t.Errorf("single-chunk root codec = %v, want Raw", root.Codec())
	}
	if len(sink) != 1 || !bytes.Equal(sink[root], content) {
		t.Error("the single block is not the content")
	}
}

func TestMultiChunkFile(t *testing.T) {
	sink := memSink{}
	b := NewBuilder(sink, 16, 3)
	content := make([]byte, 1000)
	rand.New(rand.NewSource(7)).Read(content)
	root, size := b.AddFile(content)
	if size != 1000 {
		t.Errorf("size = %d", size)
	}
	if root.Codec() != cid.DagProtobuf {
		t.Errorf("multi-chunk root codec = %v, want DagProtobuf", root.Codec())
	}
	leaves, err := leafCIDs(sink, root)
	if err != nil {
		t.Fatalf("leafCIDs: %v", err)
	}
	if want := (1000 + 15) / 16; len(leaves) != want {
		t.Fatalf("leaves = %d, want %d", len(leaves), want)
	}
	for i, c := range leaves {
		if chunk := content[i*16 : min(i*16+16, len(content))]; !bytes.Equal(sink[c], chunk) {
			t.Errorf("leaf %d is not chunk %d of the content", i, i)
		}
	}
}

func TestDeduplication(t *testing.T) {
	sink := memSink{}
	b := NewBuilder(sink, 16, 4)
	// Two files sharing the same repeated chunk content dedup on leaves.
	chunk := bytes.Repeat([]byte{0xAA}, 16)
	content := bytes.Repeat(chunk, 20)
	b.AddFile(content)
	// 1 unique leaf + interior nodes; without dedup there would be 20 leaves.
	leafCount := 0
	for c := range sink {
		if c.Codec() == cid.Raw {
			leafCount++
		}
	}
	if leafCount != 1 {
		t.Errorf("unique leaves = %d, want 1 (dedup)", leafCount)
	}
}

func TestNodeRoundTrip(t *testing.T) {
	n := &Node{
		Kind: KindFile,
		Data: []byte("inline"),
		Links: []Link{
			{Name: "", CID: cid.Sum(cid.Raw, []byte("l1")), Size: 10},
			{Name: "named", CID: cid.Sum(cid.DagProtobuf, []byte("l2")), Size: 99},
		},
	}
	dec, err := DecodeNode(cid.DagProtobuf, n.Encode())
	if err != nil {
		t.Fatalf("DecodeNode: %v", err)
	}
	if dec.Kind != n.Kind || !bytes.Equal(dec.Data, n.Data) || len(dec.Links) != 2 {
		t.Fatal("node round trip mismatch")
	}
	for i := range n.Links {
		if dec.Links[i] != n.Links[i] {
			t.Errorf("link %d mismatch", i)
		}
	}
}

func TestDecodeNodeCorrupt(t *testing.T) {
	enc := (&Node{Kind: KindFile, Links: []Link{{Name: "x", CID: cid.Sum(cid.Raw, []byte("y")), Size: 1}}}).Encode()
	for i := 1; i < len(enc); i++ {
		if _, err := DecodeNode(cid.DagProtobuf, enc[:i]); err == nil {
			t.Errorf("truncation at %d decoded successfully", i)
		}
	}
	for _, kind := range []byte{3, 77} { // 3 was the directory kind
		if _, err := DecodeNode(cid.DagProtobuf, []byte{kind, 0, 0}); err == nil {
			t.Errorf("bad kind %d accepted", kind)
		}
	}
}

// FuzzDecodeNode: decoding never writes into its input, which is a block
// other holders share, and neither does an append to the decoded Data. A
// node that decodes encodes back to the very same bytes.
func FuzzDecodeNode(f *testing.F) {
	leaf := cid.Sum(cid.Raw, []byte("leaf"))
	f.Add(false, (&Node{Kind: KindFile, Data: []byte("inline"), Links: []Link{{CID: leaf, Size: 4}}}).Encode())
	f.Add(false, (&Node{Kind: KindFile, Links: []Link{{Name: "a", CID: leaf, Size: 4}, {Name: "b", CID: leaf, Size: 4}}}).Encode())
	f.Add(false, (&Node{Kind: KindFile}).Encode())
	f.Add(false, []byte{byte(KindFile), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(true, []byte("raw block"))
	f.Add(true, []byte{})
	f.Fuzz(func(t *testing.T, raw bool, data []byte) {
		codec := cid.DagProtobuf
		if raw {
			codec = cid.Raw
		}
		orig := bytes.Clone(data)
		node, err := DecodeNode(codec, data)
		if !bytes.Equal(data, orig) {
			t.Fatalf("DecodeNode wrote into its input: %x, was %x", data, orig)
		}
		if err != nil {
			return
		}
		_ = append(node.Data, 0xAA)
		if !bytes.Equal(data, orig) {
			t.Fatalf("an append to Data wrote into the input: %x, was %x", data, orig)
		}
		if enc := node.Encode(); !bytes.Equal(enc, orig) {
			t.Fatalf("Encode(DecodeNode(%x)) = %x", orig, enc)
		}
	})
}

func TestWalkMissingBlock(t *testing.T) {
	sink := memSink{}
	b := NewBuilder(sink, 16, 4)
	content := make([]byte, 200)
	root, _ := b.AddFile(content)
	leaves, err := leafCIDs(sink, root)
	if err != nil {
		t.Fatal(err)
	}
	delete(sink, leaves[0])
	if _, err := leafCIDs(sink, root); err == nil {
		t.Error("walk over a missing block succeeded")
	}
}

func TestWalkVisitsEveryBlockOnce(t *testing.T) {
	sink := memSink{}
	b := NewBuilder(sink, 8, 2)
	content := make([]byte, 300)
	rand.New(rand.NewSource(3)).Read(content)
	root, _ := b.AddFile(content)
	visits := map[cid.CID]int{}
	err := walk(sink, root, func(c cid.CID, n *Node) error {
		visits[c]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != len(sink) {
		t.Errorf("visited %d blocks, store has %d", len(visits), len(sink))
	}
	for c, n := range visits {
		if n != 1 {
			t.Errorf("block %s visited %d times", c, n)
		}
	}
}
