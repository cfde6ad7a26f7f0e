package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

// fuzzSeedTrace renders a structurally valid binary trace to seed the
// corpus: the interesting mutations are one bit-flip away from real framing.
func fuzzSeedTrace(t interface{ Fatal(...any) }, n int) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range randomTrace(rand.New(rand.NewSource(1)), n) {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader hammers the binary trace reader with corrupt inputs: it must
// reject them with an error, never panic, hang, or run away allocating.
func FuzzReader(f *testing.F) {
	f.Add(fuzzSeedTrace(f, 32))
	f.Add(fuzzSeedTrace(f, 0))
	f.Add([]byte{})
	seed := fuzzSeedTrace(f, 8)
	f.Add(seed[:len(seed)/2])                                   // truncated mid-stream
	f.Add(midLiteralStream(f))                                  // a whole gzip member that ends inside a CID literal
	f.Add(rawStream(f, string(fileMagic)+"\x00\x00\x02us\x05")) // a ref into an empty dictionary
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer r.Close()
		// A malformed stream may decode arbitrarily many garbage entries
		// from compressed noise, but must terminate; cap the walk to keep
		// the fuzzer fast.
		for i := 0; i < 1<<16; i++ {
			if _, err := r.Read(); err != nil {
				return
			}
		}
	})
}

// FuzzCSVReader does the same for the CSV form of a trace.
func FuzzCSVReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	for _, e := range randomTrace(rand.New(rand.NewSource(2)), 16) {
		if err := w.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("timestamp,monitor,node,addr,type,cid,flags\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewCSVReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			if _, err := r.Read(); err != nil {
				return
			}
		}
	})
}
