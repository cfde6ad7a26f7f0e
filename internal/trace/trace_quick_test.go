package trace

import (
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

// randomTrace builds a random but structurally valid trace.
func randomTrace(rng *rand.Rand, n int) []Entry {
	monitors := []string{"us", "de"}
	out := make([]Entry, n)
	for i := range out {
		var id simnet.NodeID
		id[0] = byte(rng.Intn(5))
		out[i] = Entry{
			Timestamp: t0.Add(time.Duration(rng.Intn(3600)) * time.Second),
			Monitor:   monitors[rng.Intn(2)],
			NodeID:    id,
			Addr:      "3.0.0.1:4001",
			Type:      wire.EntryType(rng.Intn(3) + 1),
			CID:       cid.Sum(cid.Raw, []byte{byte(rng.Intn(8))}),
		}
	}
	return out
}

// TestQuickUnifyInvariants: Unify preserves entry count, sorts by time, and
// never flags the first occurrence of a (node, type, CID) key.
func TestQuickUnifyInvariants(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomTrace(rng, int(size))
		out := Unify(in)
		if len(out) != len(in) {
			return false
		}
		firstSeen := make(map[dupKey]bool)
		for i := range out {
			if i > 0 && out[i].Timestamp.Before(out[i-1].Timestamp) {
				return false
			}
			k := dupKey{node: out[i].NodeID, typ: out[i].Type, c: out[i].CID}
			if !firstSeen[k] {
				firstSeen[k] = true
				if out[i].Flags != 0 {
					return false // first occurrence must be clean
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickDedupSubset: Deduplicated output is always a subset preserving
// order, and re-unifying the deduplicated trace flags nothing new within
// the rebroadcast window... the weaker, always-true property checked here
// is subset + order preservation.
func TestQuickDedupSubset(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		out := Unify(randomTrace(rng, int(size)))
		dedup := Deduplicated(out)
		if len(dedup) > len(out) {
			return false
		}
		j := 0
		for _, e := range out {
			if j < len(dedup) && e == dedup[j] {
				j++
			}
		}
		return j == len(dedup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickIORoundTrip: any valid trace survives the binary encoding.
func TestQuickIORoundTrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomTrace(rng, int(size)%64)
		var buf writerBuffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, e := range in {
			if err := w.Write(e); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := readAll(r)
		if err != nil || len(got) != len(in) {
			return false
		}
		for i := range in {
			if !got[i].Timestamp.Equal(in[i].Timestamp) || got[i].Monitor != in[i].Monitor ||
				got[i].NodeID != in[i].NodeID || got[i].Type != in[i].Type ||
				!got[i].CID.Equal(in[i].CID) || got[i].Flags != in[i].Flags {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// writerBuffer is a minimal in-memory io.ReadWriter.
type writerBuffer struct {
	data []byte
	pos  int
}

func (b *writerBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writerBuffer) Read(p []byte) (int, error) {
	if b.pos >= len(b.data) {
		return 0, errEOF
	}
	n := copy(p, b.data[b.pos:])
	b.pos += n
	return n, nil
}

var errEOF = io.EOF
