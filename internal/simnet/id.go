package simnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"math/rand"
)

// NodeID identifies a node in the overlay. As in IPFS, a node ID is the hash
// of the node's public key; here IDs are derived by hashing a seed, which
// preserves the property that IDs are uniformly distributed in the 256-bit
// keyspace.
type NodeID [32]byte

// DeriveNodeID hashes seed material into a NodeID, mimicking H(kpub).
func DeriveNodeID(seed []byte) NodeID {
	return NodeID(sha256.Sum256(seed))
}

// RandomNodeID draws a fresh NodeID from rng.
func RandomNodeID(rng *rand.Rand) NodeID {
	var seed [16]byte
	binary.LittleEndian.PutUint64(seed[0:8], rng.Uint64())
	binary.LittleEndian.PutUint64(seed[8:16], rng.Uint64())
	return DeriveNodeID(seed[:])
}

// String renders a short hex prefix, enough to identify nodes in logs.
func (n NodeID) String() string {
	return hex.EncodeToString(n[:6])
}

// HexFull renders the full 64-character hex form.
func (n NodeID) HexFull() string {
	return hex.EncodeToString(n[:])
}

// XOR returns the Kademlia distance n ^ o.
func (n NodeID) XOR(o NodeID) NodeID {
	var d NodeID
	for i := range n {
		d[i] = n[i] ^ o[i]
	}
	return d
}

// Less orders IDs as big-endian 256-bit integers, the ordering used to rank
// candidates by XOR distance to a target.
func (n NodeID) Less(o NodeID) bool {
	for i := range n {
		if n[i] != o[i] {
			return n[i] < o[i]
		}
	}
	return false
}

// Compare orders IDs as big-endian 256-bit integers, returning -1, 0 or +1.
func (n NodeID) Compare(o NodeID) int {
	for i := range n {
		if n[i] != o[i] {
			if n[i] < o[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// DistanceCompare orders a and b by XOR distance to target without
// materializing either distance: it returns -1, 0 or +1 as a is closer to,
// as close as, or farther from target than b. XOR with a fixed target is a
// bijection, so a result of 0 implies a == b — callers ranking distinct IDs
// need no further tie-break. Equivalent to a.XOR(target).Compare(b.XOR(target))
// but with a single early-exit byte loop, which matters in sort comparators
// (the DHT lookup hot path).
func DistanceCompare(target, a, b NodeID) int {
	for i := range target {
		ax := a[i] ^ target[i]
		bx := b[i] ^ target[i]
		if ax != bx {
			if ax < bx {
				return -1
			}
			return 1
		}
	}
	return 0
}

// CommonPrefixLen counts the leading bits shared by n and o: the leading
// zero bits of their XOR distance, 255 - floor(log2(distance)). 256 means
// the IDs are equal.
func (n NodeID) CommonPrefixLen(o NodeID) int {
	for i := range n {
		if x := n[i] ^ o[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return 256
}

// Uniform01 maps the ID to [0,1) by its most significant 64 bits. This is the
// quantity plotted in the paper's Fig. 3 QQ uniformity diagnostic.
func (n NodeID) Uniform01() float64 {
	v := binary.BigEndian.Uint64(n[:8])
	return float64(v) / float64(1<<63) / 2
}
