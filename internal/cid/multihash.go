package cid

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// HashCode identifies a multihash function.
type HashCode uint64

// Multihash function code points (real values from the multiformats table).
const (
	HashIdentity HashCode = 0x00
	HashSha2256  HashCode = 0x12
)

var (
	// ErrUnknownHash is returned for multihash codes this library cannot
	// compute or validate.
	ErrUnknownHash = errors.New("cid: unknown multihash function")
	// ErrDigestLength is returned when a multihash's declared digest length
	// disagrees with the available bytes.
	ErrDigestLength = errors.New("cid: multihash digest length mismatch")
)

// Multihash is a self-describing hash: <fncode><length><digest>.
type Multihash struct {
	Code   HashCode
	Digest []byte
}

// SumSha256 computes the sha2-256 multihash of data.
func SumSha256(data []byte) Multihash {
	d := sha256.Sum256(data)
	return Multihash{Code: HashSha2256, Digest: d[:]}
}

// Encode appends the binary multihash representation to buf.
func (m Multihash) Encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.Code))
	buf = binary.AppendUvarint(buf, uint64(len(m.Digest)))
	return append(buf, m.Digest...)
}

// DecodeMultihash parses a binary multihash from the start of buf, returning
// the multihash and the number of bytes consumed. The digest is copied.
func DecodeMultihash(buf []byte) (Multihash, int, error) {
	code, n, err := Uvarint(buf)
	if err != nil {
		return Multihash{}, 0, fmt.Errorf("multihash code: %w", err)
	}
	length, m, err := Uvarint(buf[n:])
	if err != nil {
		return Multihash{}, 0, fmt.Errorf("multihash length: %w", err)
	}
	n += m
	if length > 128 {
		return Multihash{}, 0, fmt.Errorf("%w: declared %d", ErrDigestLength, length)
	}
	if uint64(len(buf)-n) < length {
		return Multihash{}, 0, ErrDigestLength
	}
	digest := make([]byte, length)
	copy(digest, buf[n:n+int(length)])
	return Multihash{Code: HashCode(code), Digest: digest}, n + int(length), nil
}

// Verify reports whether the multihash matches data. Unknown hash functions
// return ErrUnknownHash: integrity cannot be confirmed.
func (m Multihash) Verify(data []byte) error {
	switch m.Code {
	case HashSha2256:
		d := sha256.Sum256(data)
		if string(d[:]) != string(m.Digest) {
			return errors.New("cid: digest mismatch")
		}
		return nil
	case HashIdentity:
		if string(data) != string(m.Digest) {
			return errors.New("cid: identity digest mismatch")
		}
		return nil
	default:
		return ErrUnknownHash
	}
}
