package cid

import (
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

const (
	base32Alphabet = "abcdefghijklmnopqrstuvwxyz234567"
	base58Alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
)

var (
	base32Rev [256]int8
	base58Rev [256]int8
)

func init() {
	for i := range base32Rev {
		base32Rev[i] = -1
		base58Rev[i] = -1
	}
	for i := 0; i < len(base32Alphabet); i++ {
		base32Rev[base32Alphabet[i]] = int8(i)
	}
	for i := 0; i < len(base58Alphabet); i++ {
		base58Rev[base58Alphabet[i]] = int8(i)
	}
}

// encodeBase32 encodes data as unpadded lowercase RFC4648 base32.
func encodeBase32(data []byte) string {
	var sb strings.Builder
	sb.Grow((len(data)*8 + 4) / 5)
	var (
		acc  uint
		bits uint
	)
	for _, b := range data {
		acc = acc<<8 | uint(b)
		bits += 8
		for bits >= 5 {
			bits -= 5
			sb.WriteByte(base32Alphabet[(acc>>bits)&0x1f])
		}
	}
	if bits > 0 {
		sb.WriteByte(base32Alphabet[(acc<<(5-bits))&0x1f])
	}
	return sb.String()
}

// decodeBase32 decodes unpadded lowercase RFC4648 base32.
func decodeBase32(s string) ([]byte, error) {
	out := make([]byte, 0, len(s)*5/8)
	var (
		acc  uint
		bits uint
	)
	for i := 0; i < len(s); i++ {
		v := base32Rev[s[i]]
		if v < 0 {
			return nil, fmt.Errorf("cid: invalid base32 character %q", s[i])
		}
		acc = acc<<5 | uint(v)
		bits += 5
		if bits >= 8 {
			bits -= 8
			out = append(out, byte(acc>>bits))
		}
	}
	if acc&((1<<bits)-1) != 0 {
		return nil, errors.New("cid: non-zero base32 padding bits")
	}
	return out, nil
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
