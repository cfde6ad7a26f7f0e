// Package cid implements content identifiers as used by IPFS: self-describing
// content addresses combining a version, a multicodec content type and a
// multihash of the addressed data.
//
// The binary and string formats are wire-compatible with the multiformats
// specifications (CIDv0 base58btc sha2-256 DagProtobuf, CIDv1
// base32-multibase). The package also carries the multicodec registry used by
// the paper's Table I analysis.
package cid

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the CID version.
type Version uint8

// Supported CID versions.
const (
	V0 Version = 0
	V1 Version = 1
)

var (
	// ErrInvalidCID is returned for malformed CID strings or bytes.
	ErrInvalidCID = errors.New("cid: invalid CID")
	// ErrUnsupportedVersion is returned for CID versions other than 0 and 1.
	ErrUnsupportedVersion = errors.New("cid: unsupported version")
)

// CID is a content identifier. The zero value is invalid; use New, NewV0 or
// Parse/Decode. CID values are immutable: the key field stores the binary
// representation as a string so CIDs are comparable and usable as map keys.
type CID struct {
	key string
}

// New builds a CIDv1 from a codec and multihash.
func New(codec Codec, mh Multihash) CID {
	var a [64]byte // fits a sha2-256 CID; a longer digest grows onto the heap
	buf := binary.AppendUvarint(a[:0], uint64(V1))
	buf = binary.AppendUvarint(buf, uint64(codec))
	buf = mh.Encode(buf)
	return CID{key: string(buf)}
}

// NewV0 builds a CIDv0, which is implicitly DagProtobuf + sha2-256.
func NewV0(mh Multihash) (CID, error) {
	if mh.Code != HashSha2256 || len(mh.Digest) != 32 {
		return CID{}, fmt.Errorf("%w: CIDv0 requires sha2-256", ErrInvalidCID)
	}
	return CID{key: string(mh.Encode(nil))}, nil
}

// Sum is a convenience constructor: the CIDv1 of data under codec using
// sha2-256, mirroring how IPFS derives addr(d) = H(d).
func Sum(codec Codec, data []byte) CID {
	return New(codec, SumSha256(data))
}

// Defined reports whether the CID is non-zero.
func (c CID) Defined() bool { return c.key != "" }

// Version returns the CID version.
func (c CID) Version() Version {
	if len(c.key) == 34 && c.key[0] == 0x12 && c.key[1] == 0x20 {
		return V0
	}
	return V1
}

// Codec returns the multicodec content type. CIDv0 is always DagProtobuf.
func (c CID) Codec() Codec {
	if c.Version() == V0 {
		return DagProtobuf
	}
	buf := []byte(c.key)
	_, n, err := Uvarint(buf)
	if err != nil {
		return 0
	}
	codec, _, err := Uvarint(buf[n:])
	if err != nil {
		return 0
	}
	return Codec(codec)
}

// Hash returns the multihash component.
func (c CID) Hash() (Multihash, error) {
	buf := []byte(c.key)
	if c.Version() == V0 {
		mh, _, err := DecodeMultihash(buf)
		return mh, err
	}
	_, n, err := Uvarint(buf)
	if err != nil {
		return Multihash{}, err
	}
	_, m, err := Uvarint(buf[n:])
	if err != nil {
		return Multihash{}, err
	}
	mh, _, err := DecodeMultihash(buf[n+m:])
	return mh, err
}

// Bytes returns the binary representation (a copy).
func (c CID) Bytes() []byte { return []byte(c.key) }

// Key returns the binary representation as a string, suitable for map keys.
func (c CID) Key() string { return c.key }

// Equal reports CID equality.
func (c CID) Equal(o CID) bool { return c.key == o.key }

// String renders the canonical text form: base58btc for CIDv0, multibase
// base32 for CIDv1.
func (c CID) String() string {
	if !c.Defined() {
		return "<undefined-cid>"
	}
	if c.Version() == V0 {
		return encodeBase58([]byte(c.key))
	}
	var a [64]byte // fits a sha2-256 CID's text form
	return string(base32Lower.AppendEncode(append(a[:0], multibaseBase32), []byte(c.key)))
}

// Decode parses a binary CID.
func Decode(buf []byte) (CID, error) {
	if len(buf) == 34 && buf[0] == 0x12 && buf[1] == 0x20 {
		mh, _, err := DecodeMultihash(buf)
		if err != nil {
			return CID{}, err
		}
		return NewV0(mh)
	}
	version, n, err := Uvarint(buf)
	if err != nil {
		return CID{}, fmt.Errorf("%w: %v", ErrInvalidCID, err)
	}
	if version != uint64(V1) {
		return CID{}, fmt.Errorf("%w: %d", ErrUnsupportedVersion, version)
	}
	codec, m, err := Uvarint(buf[n:])
	if err != nil {
		return CID{}, fmt.Errorf("%w: codec: %v", ErrInvalidCID, err)
	}
	mh, k, err := DecodeMultihash(buf[n+m:])
	if err != nil {
		return CID{}, fmt.Errorf("%w: %v", ErrInvalidCID, err)
	}
	if n+m+k != len(buf) {
		return CID{}, fmt.Errorf("%w: trailing bytes", ErrInvalidCID)
	}
	return New(Codec(codec), mh), nil
}

// Parse parses the canonical text forms produced by String.
func Parse(s string) (CID, error) {
	if len(s) == 0 {
		return CID{}, ErrInvalidCID
	}
	if len(s) == 46 && s[0] == 'Q' && s[1] == 'm' {
		raw, err := decodeBase58(s)
		if err != nil {
			return CID{}, fmt.Errorf("%w: %v", ErrInvalidCID, err)
		}
		return Decode(raw)
	}
	if s[0] == multibaseBase32 {
		raw, err := decodeBase32(s[1:])
		if err != nil {
			return CID{}, fmt.Errorf("%w: %v", ErrInvalidCID, err)
		}
		return Decode(raw)
	}
	if s[0] == multibaseBase58 {
		raw, err := decodeBase58(s[1:])
		if err != nil {
			return CID{}, fmt.Errorf("%w: %v", ErrInvalidCID, err)
		}
		return Decode(raw)
	}
	return CID{}, fmt.Errorf("%w: unknown multibase prefix %q", ErrInvalidCID, s[0])
}
