package cid

import (
	"bytes"
	"encoding/base32"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 255, 300, 16384, 1 << 32, 1<<63 + 5}
	for _, v := range cases {
		buf := binary.AppendUvarint(nil, v)
		got, n, err := Uvarint(buf)
		if err != nil {
			t.Fatalf("Uvarint(%d): %v", v, err)
		}
		if got != v || n != len(buf) {
			t.Errorf("Uvarint round trip: got (%d,%d), want (%d,%d)", got, n, v, len(buf))
		}
	}
}

func TestUvarintRejectsNonMinimal(t *testing.T) {
	// 0x80 0x00 is a padded encoding of 0.
	if _, _, err := Uvarint([]byte{0x80, 0x00}); err == nil {
		t.Error("expected error for non-minimal varint")
	}
}

func TestUvarintTruncated(t *testing.T) {
	if _, _, err := Uvarint([]byte{0x80}); err == nil {
		t.Error("expected error for truncated varint")
	}
	if _, _, err := Uvarint(nil); err == nil {
		t.Error("expected error for empty varint")
	}
}

func TestUvarintOverflow(t *testing.T) {
	buf := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := Uvarint(buf); err == nil {
		t.Error("expected overflow error")
	}
}

func TestUvarintQuick(t *testing.T) {
	f := func(v uint64) bool {
		buf := binary.AppendUvarint(nil, v)
		got, n, err := Uvarint(buf)
		return err == nil && got == v && n == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultihashRoundTrip(t *testing.T) {
	data := []byte("hello ipfs")
	mh := SumSha256(data)
	if err := mh.Verify(data); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := mh.Verify([]byte("tampered")); err == nil {
		t.Error("Verify accepted tampered data")
	}
	enc := mh.Encode(nil)
	dec, n, err := DecodeMultihash(enc)
	if err != nil {
		t.Fatalf("DecodeMultihash: %v", err)
	}
	if n != len(enc) || dec.Code != mh.Code || !bytes.Equal(dec.Digest, mh.Digest) {
		t.Error("multihash round trip mismatch")
	}
}

// identityHash wraps data in an identity multihash (digest == data).
func identityHash(data []byte) Multihash {
	d := make([]byte, len(data))
	copy(d, data)
	return Multihash{Code: HashIdentity, Digest: d}
}

func TestIdentityHash(t *testing.T) {
	data := []byte("tiny")
	mh := identityHash(data)
	if err := mh.Verify(data); err != nil {
		t.Fatalf("identity Verify: %v", err)
	}
	data[0] = 'x' // the digest must be a copy
	if err := mh.Verify([]byte("tiny")); err != nil {
		t.Error("identity digest aliased caller's buffer")
	}
}

func TestDecodeMultihashRejectsHugeLength(t *testing.T) {
	buf := binary.AppendUvarint(nil, uint64(HashSha2256))
	buf = binary.AppendUvarint(buf, 1<<20)
	if _, _, err := DecodeMultihash(buf); err == nil {
		t.Error("expected error for huge digest length")
	}
}

func TestCIDV1RoundTrip(t *testing.T) {
	for _, codec := range []Codec{Raw, DagProtobuf, DagCBOR, GitRaw, EthereumTx} {
		c := Sum(codec, []byte("payload"))
		if c.Version() != V1 {
			t.Errorf("version = %d, want 1", c.Version())
		}
		if c.Codec() != codec {
			t.Errorf("codec = %v, want %v", c.Codec(), codec)
		}
		s := c.String()
		if s[0] != 'b' {
			t.Errorf("CIDv1 string should be base32 multibase, got %q", s)
		}
		parsed, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !parsed.Equal(c) {
			t.Error("string round trip mismatch")
		}
		dec, err := Decode(c.Bytes())
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !dec.Equal(c) {
			t.Error("binary round trip mismatch")
		}
	}
}

func TestCIDV0RoundTrip(t *testing.T) {
	mh := SumSha256([]byte("v0 payload"))
	c, err := NewV0(mh)
	if err != nil {
		t.Fatalf("NewV0: %v", err)
	}
	if c.Version() != V0 || c.Codec() != DagProtobuf {
		t.Errorf("v0 identity: version=%d codec=%v", c.Version(), c.Codec())
	}
	s := c.String()
	if len(s) != 46 || s[:2] != "Qm" {
		t.Errorf("CIDv0 string = %q, want Qm... of length 46", s)
	}
	parsed, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !parsed.Equal(c) {
		t.Error("v0 round trip mismatch")
	}
}

func TestNewV0RejectsNonSha256(t *testing.T) {
	if _, err := NewV0(identityHash([]byte("x"))); err == nil {
		t.Error("NewV0 accepted identity hash")
	}
}

func TestCIDHashMatchesData(t *testing.T) {
	data := []byte("integrity check")
	c := Sum(Raw, data)
	mh, err := c.Hash()
	if err != nil {
		t.Fatalf("Hash: %v", err)
	}
	if err := mh.Verify(data); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{"", "x123", "b!!!!", "QmInvalidBase58DataThatIsWrongLength0000000000",
		// Sum(Raw, []byte("x")) is bafkreibnoelefnzgwbcacyt4vh52ymxvzbjq7mmqhtcnwarfq4lzegsiqe;
		// each of these spells it some other way.
		"bafkreibnoelefnzgwbcacyt4vh52ymxvzbjq7mmqhtcnwarfq4lzegsiqea",  // one character too many
		"bafkreibnoelefnzgwbcacyt4vh52ymxvzbjq7mmqhtcnwarfq4lzegsiqb",   // non-zero trailing bits
		"bafkreibnoelefnzgwbc\nacyt4vh52ymxvzbjq7mmqhtcnwarfq4lzegsiqe", // a line break
	}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	c := Sum(Raw, []byte("x"))
	if _, err := Decode(append(c.Bytes(), 0x00)); err == nil {
		t.Error("Decode accepted trailing bytes")
	}
}

func TestBase32MatchesStdlib(t *testing.T) {
	std := base32.StdEncoding.WithPadding(base32.NoPadding)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		want := []byte(std.EncodeToString(data))
		for j := range want {
			if want[j] >= 'A' && want[j] <= 'Z' {
				want[j] += 'a' - 'A'
			}
		}
		if got := base32Lower.EncodeToString(data); got != string(want) {
			t.Fatalf("base32Lower mismatch: got %q want %q", got, want)
		}
		back, err := decodeBase32(string(want))
		if err != nil {
			t.Fatalf("decodeBase32: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("decodeBase32 round trip mismatch")
		}
	}
}

func TestBase58LeadingZeros(t *testing.T) {
	data := []byte{0, 0, 1, 2, 3}
	s := encodeBase58(data)
	if s[0] != '1' || s[1] != '1' {
		t.Errorf("leading zeros not preserved: %q", s)
	}
	back, err := decodeBase58(s)
	if err != nil {
		t.Fatalf("decodeBase58: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Errorf("round trip: got %v want %v", back, data)
	}
}

func TestCIDQuickRoundTrip(t *testing.T) {
	f := func(data []byte, useRaw bool) bool {
		codec := DagProtobuf
		if useRaw {
			codec = Raw
		}
		c := Sum(codec, data)
		p1, err1 := Parse(c.String())
		p2, err2 := Decode(c.Bytes())
		return err1 == nil && err2 == nil && p1.Equal(c) && p2.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCodecString(t *testing.T) {
	if DagProtobuf.String() != "DagProtobuf" {
		t.Errorf("got %q", DagProtobuf.String())
	}
	if Codec(0xdead).String() != "codec-0xdead" {
		t.Errorf("got %q", Codec(0xdead).String())
	}
}

func TestCIDAsMapKey(t *testing.T) {
	m := map[CID]int{}
	a := Sum(Raw, []byte("a"))
	b := Sum(Raw, []byte("b"))
	m[a] = 1
	m[b] = 2
	if m[Sum(Raw, []byte("a"))] != 1 || m[b] != 2 {
		t.Error("CID map key semantics broken")
	}
}
