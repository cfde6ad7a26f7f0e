package cid

import (
	"encoding/binary"
	"errors"
)

// Varint handling for the multiformats family. These are unsigned LEB128
// varints as used by multihash, multicodec and CID binary encodings;
// binary.AppendUvarint writes them.

var (
	// ErrVarintOverflow is returned when a varint does not fit in a uint64.
	ErrVarintOverflow = errors.New("cid: varint overflows uint64")
	// ErrVarintTruncated is returned when the buffer ends mid-varint.
	ErrVarintTruncated = errors.New("cid: truncated varint")
	// ErrVarintNotMinimal is returned for non-canonical (padded) varints.
	ErrVarintNotMinimal = errors.New("cid: varint not minimally encoded")
)

// Uvarint decodes an unsigned LEB128 varint from the start of buf. It returns
// the value and the number of bytes consumed. Unlike encoding/binary, it
// rejects non-minimal encodings, which are invalid in the multiformats spec.
func Uvarint(buf []byte) (uint64, int, error) {
	x, n := binary.Uvarint(buf)
	switch {
	case n == 0:
		return 0, 0, ErrVarintTruncated
	case n < 0:
		return 0, 0, ErrVarintOverflow
	case n > 1 && buf[n-1] == 0:
		return 0, 0, ErrVarintNotMinimal
	}
	return x, n, nil
}
