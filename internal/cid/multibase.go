package cid

import (
	"encoding/base32"
	"errors"
	"fmt"
	"math/big"
	"strings"
)

// Multibase prefixes self-describe the base encoding of a string.
const (
	multibaseBase32 = 'b' // RFC4648 lowercase, no padding (CIDv1 default)
	multibaseBase58 = 'z' // base58btc (CIDv0 convention, without prefix)
)

// base32Lower is RFC4648 base32 with the lowercase alphabet and no padding,
// the CIDv1 default multibase.
var base32Lower = base32.NewEncoding("abcdefghijklmnopqrstuvwxyz234567").WithPadding(base32.NoPadding)

const base58Alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

var base58Rev [256]int8

func init() {
	for i := range base58Rev {
		base58Rev[i] = -1
	}
	for i := 0; i < len(base58Alphabet); i++ {
		base58Rev[base58Alphabet[i]] = int8(i)
	}
}

// decodeBase32 decodes the canonical base32Lower form. encoding/base32 also
// accepts strings it would never write (non-zero trailing bits, a dangling
// character, line breaks), so a string is accepted only if it re-encodes to
// itself: every CID then has exactly one text form.
func decodeBase32(s string) ([]byte, error) {
	raw, err := base32Lower.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("cid: base32: %v", err)
	}
	var a [64]byte
	if string(base32Lower.AppendEncode(a[:0], raw)) != s {
		return nil, errors.New("cid: non-canonical base32")
	}
	return raw, nil
}

// encodeBase58 encodes data as base58btc.
func encodeBase58(data []byte) string {
	zeros := 0
	for zeros < len(data) && data[zeros] == 0 {
		zeros++
	}
	n := new(big.Int).SetBytes(data)
	radix := big.NewInt(58)
	mod := new(big.Int)
	var digits []byte
	for n.Sign() > 0 {
		n.DivMod(n, radix, mod)
		digits = append(digits, base58Alphabet[mod.Int64()])
	}
	var sb strings.Builder
	sb.Grow(zeros + len(digits))
	for i := 0; i < zeros; i++ {
		sb.WriteByte(base58Alphabet[0])
	}
	for i := len(digits) - 1; i >= 0; i-- {
		sb.WriteByte(digits[i])
	}
	return sb.String()
}

// decodeBase58 decodes a base58btc string.
func decodeBase58(s string) ([]byte, error) {
	zeros := 0
	for zeros < len(s) && s[zeros] == base58Alphabet[0] {
		zeros++
	}
	n := new(big.Int)
	radix := big.NewInt(58)
	for i := zeros; i < len(s); i++ {
		v := base58Rev[s[i]]
		if v < 0 {
			return nil, fmt.Errorf("cid: invalid base58 character %q", s[i])
		}
		n.Mul(n, radix)
		n.Add(n, big.NewInt(int64(v)))
	}
	body := n.Bytes()
	out := make([]byte, zeros+len(body))
	copy(out[zeros:], body)
	return out, nil
}
