// Package merkledag implements the IPFS data model: content-addressed blocks
// organised as a Merkle DAG (Sec. III-B of the paper).
//
// Files are chunked into Raw leaf blocks linked from DagProtobuf interior
// nodes. Nodes may have multiple parents (deduplication), and non-leaf nodes
// may carry data, which distinguishes the structure from a Merkle tree.
package merkledag

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bitswapmon/internal/cid"
)

// DefaultChunkSize is the chunk size used by the builder when none is given.
// (go-ipfs uses 256 KiB; scaled workloads may choose smaller chunks.)
const DefaultChunkSize = 256 * 1024

// Link references a child node in the DAG.
type Link struct {
	// Name is the link's name. It is part of the encoding; the builder's
	// file-chunk links leave it empty.
	Name string
	// CID addresses the child.
	CID cid.CID
	// Size is the cumulative size of the subgraph under the child.
	Size uint64
}

// NodeKind distinguishes the UnixFS-like node flavours.
type NodeKind uint8

// Node kinds.
const (
	KindRaw NodeKind = iota + 1
	KindFile
)

// Node is one DAG node prior to serialisation.
type Node struct {
	Kind  NodeKind
	Data  []byte
	Links []Link
}

// Codec returns the multicodec under which this node serialises.
func (n *Node) Codec() cid.Codec {
	if n.Kind == KindRaw {
		return cid.Raw
	}
	return cid.DagProtobuf
}

// ErrCorruptNode is returned when node bytes cannot be parsed.
var ErrCorruptNode = errors.New("merkledag: corrupt node")

// Encode serialises the node deterministically.
//
// Raw nodes serialise as their bare data (codec Raw): Encode returns Data
// itself, not a copy. File nodes use a compact length-prefixed encoding
// (standing in for the DagProtobuf encoding; the codec reported to CIDs is
// DagProtobuf).
func (n *Node) Encode() []byte {
	if n.Kind == KindRaw {
		return n.Data
	}
	buf := []byte{byte(n.Kind)}
	buf = binary.AppendUvarint(buf, uint64(len(n.Data)))
	buf = append(buf, n.Data...)
	buf = binary.AppendUvarint(buf, uint64(len(n.Links)))
	for _, l := range n.Links {
		buf = binary.AppendUvarint(buf, uint64(len(l.Name)))
		buf = append(buf, l.Name...)
		raw := l.CID.Key()
		buf = binary.AppendUvarint(buf, uint64(len(raw)))
		buf = append(buf, raw...)
		buf = binary.AppendUvarint(buf, l.Size)
	}
	return buf
}

// DecodeNode parses node bytes under the given codec. The node's Data
// aliases data, which is a block and so is never modified; its capacity is
// cut at its length, so an append to Data cannot write into the block.
func DecodeNode(codec cid.Codec, data []byte) (*Node, error) {
	if codec == cid.Raw {
		return &Node{Kind: KindRaw, Data: data[:len(data):len(data)]}, nil
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrCorruptNode)
	}
	kind := NodeKind(data[0])
	if kind != KindFile {
		return nil, fmt.Errorf("%w: kind %d", ErrCorruptNode, data[0])
	}
	pos := 1
	dataLen, n, err := cid.Uvarint(data[pos:])
	if err != nil {
		return nil, fmt.Errorf("%w: data length: %v", ErrCorruptNode, err)
	}
	pos += n
	if dataLen > uint64(len(data)-pos) {
		return nil, fmt.Errorf("%w: data overruns", ErrCorruptNode)
	}
	end := pos + int(dataLen)
	node := &Node{Kind: kind, Data: data[pos:end:end]}
	pos = end
	linkCount, n, err := cid.Uvarint(data[pos:])
	if err != nil || linkCount > 1<<20 {
		return nil, fmt.Errorf("%w: link count", ErrCorruptNode)
	}
	pos += n
	for i := uint64(0); i < linkCount; i++ {
		var l Link
		nameLen, n, err := cid.Uvarint(data[pos:])
		if err != nil || nameLen > 4096 {
			return nil, fmt.Errorf("%w: name length", ErrCorruptNode)
		}
		pos += n
		if pos+int(nameLen) > len(data) {
			return nil, fmt.Errorf("%w: name overruns", ErrCorruptNode)
		}
		l.Name = string(data[pos : pos+int(nameLen)])
		pos += int(nameLen)
		cidLen, n, err := cid.Uvarint(data[pos:])
		if err != nil || cidLen > 256 {
			return nil, fmt.Errorf("%w: cid length", ErrCorruptNode)
		}
		pos += n
		if pos+int(cidLen) > len(data) {
			return nil, fmt.Errorf("%w: cid overruns", ErrCorruptNode)
		}
		l.CID, err = cid.Decode(data[pos : pos+int(cidLen)])
		if err != nil {
			return nil, fmt.Errorf("%w: cid: %v", ErrCorruptNode, err)
		}
		pos += int(cidLen)
		l.Size, n, err = cid.Uvarint(data[pos:])
		if err != nil {
			return nil, fmt.Errorf("%w: link size: %v", ErrCorruptNode, err)
		}
		pos += n
		node.Links = append(node.Links, l)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorruptNode)
	}
	return node, nil
}

// BlockSink receives the blocks produced by the builder. *blockstore.Store
// is one.
type BlockSink interface {
	// Put stores a block under its CID. The sink may keep data itself;
	// nobody modifies it afterwards.
	Put(c cid.CID, data []byte)
}

// Builder constructs file DAGs, writing blocks to a sink.
type Builder struct {
	sink      BlockSink
	chunkSize int
	fanout    int
}

// NewBuilder returns a Builder writing to sink. chunkSize <= 0 selects
// DefaultChunkSize; fanout <= 1 selects 174 (go-ipfs' default link width).
func NewBuilder(sink BlockSink, chunkSize, fanout int) *Builder {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if fanout <= 1 {
		fanout = 174
	}
	return &Builder{sink: sink, chunkSize: chunkSize, fanout: fanout}
}

// put encodes node once and stores the encoding under its CID.
func (b *Builder) put(node *Node) cid.CID {
	enc := node.Encode()
	c := cid.Sum(node.Codec(), enc)
	b.sink.Put(c, enc)
	return c
}

// AddFile chunks content into Raw leaves and builds a balanced DagProtobuf
// tree above them, returning the root CID and total DAG size in bytes. The
// sink is handed each leaf as a slice of content itself: a sink that keeps
// leaf bytes needs content unmodified afterwards, and one that keeps only
// the leaves' CIDs lets the caller reuse content.
func (b *Builder) AddFile(content []byte) (cid.CID, uint64) {
	if len(content) <= b.chunkSize {
		// Single-chunk files are a single Raw block.
		return b.put(&Node{Kind: KindRaw, Data: content[:len(content):len(content)]}), uint64(len(content))
	}
	var level []Link
	for off := 0; off < len(content); off += b.chunkSize {
		end := min(off+b.chunkSize, len(content))
		c := b.put(&Node{Kind: KindRaw, Data: content[off:end:end]})
		level = append(level, Link{CID: c, Size: uint64(end - off)})
	}
	for len(level) > 1 {
		var next []Link
		for i := 0; i < len(level); i += b.fanout {
			end := min(i+b.fanout, len(level))
			c := b.put(&Node{Kind: KindFile, Links: level[i:end]})
			var sz uint64
			for _, l := range level[i:end] {
				sz += l.Size
			}
			next = append(next, Link{CID: c, Size: sz})
		}
		level = next
	}
	return level[0].CID, level[0].Size
}
