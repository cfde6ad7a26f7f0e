package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bitswapmon/internal/cid"
)

func sampleMessage() *Message {
	return &Message{
		Full: true,
		Wantlist: []Entry{
			{Type: WantHave, CID: cid.Sum(cid.DagProtobuf, []byte("a")), Priority: 10, SendDontHave: true},
			{Type: WantBlock, CID: cid.Sum(cid.Raw, []byte("b")), Priority: -3},
			{Type: Cancel, CID: cid.Sum(cid.DagCBOR, []byte("c"))},
		},
		Presences: []Presence{
			{Type: Have, CID: cid.Sum(cid.Raw, []byte("d"))},
			{Type: DontHave, CID: cid.Sum(cid.Raw, []byte("e"))},
		},
		Blocks: []Block{
			{CID: cid.Sum(cid.Raw, []byte("block data")), Data: []byte("block data")},
		},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage()
	enc := m.Encode(nil)
	dec, n, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(m, dec) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", dec, m)
	}
}

func TestEmptyMessage(t *testing.T) {
	m := &Message{}
	if !m.Empty() {
		t.Error("zero message should be Empty")
	}
	dec, _, err := Decode(m.Encode(nil))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !dec.Empty() {
		t.Error("decoded empty message not Empty")
	}
	if sampleMessage().Empty() {
		t.Error("sample message reported Empty")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	enc := sampleMessage().Encode(nil)
	// Truncations at every prefix must error, never panic.
	for i := 0; i < len(enc)-1; i++ {
		if _, _, err := Decode(enc[:i]); err == nil {
			// Some prefixes may decode as a shorter valid message only
			// if consumed length matches, which Decode tolerates; but a
			// bare flags byte decodes as empty only with counts present.
			t.Errorf("Decode(enc[:%d]) unexpectedly succeeded", i)
		}
	}
}

func TestDecodeRejectsBadTypes(t *testing.T) {
	m := &Message{Wantlist: []Entry{{Type: WantHave, CID: cid.Sum(cid.Raw, []byte("x"))}}}
	enc := m.Encode(nil)
	enc[2] = 99 // entry type byte
	if _, _, err := Decode(enc); err == nil {
		t.Error("expected error for invalid entry type")
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	buf := []byte{0}
	buf = cid.PutUvarint(buf, 1<<30)
	if _, _, err := Decode(buf); err == nil {
		t.Error("expected ErrMessageTooLarge")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 100, -100, 1 << 30, -(1 << 30)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag(%d) round trip = %d", v, got)
		}
	}
	f := func(v int32) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntryTypeStrings(t *testing.T) {
	for _, et := range []EntryType{WantBlock, WantHave, Cancel} {
		parsed, err := ParseEntryType(et.String())
		if err != nil {
			t.Fatalf("ParseEntryType(%q): %v", et.String(), err)
		}
		if parsed != et {
			t.Errorf("round trip %v != %v", parsed, et)
		}
	}
	if _, err := ParseEntryType("NOPE"); err == nil {
		t.Error("expected error")
	}
	if Have.String() != "HAVE" || DontHave.String() != "DONT_HAVE" {
		t.Error("presence strings wrong")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	msgs := []*Message{sampleMessage(), {}, sampleMessage()}
	for _, m := range msgs {
		if err := w.WriteMessage(m); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r := NewReader(&buf)
	for i, want := range msgs {
		got, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("ReadMessage %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message %d mismatch", i)
		}
	}
	if _, err := r.ReadMessage(); err != io.EOF {
		t.Errorf("expected io.EOF, got %v", err)
	}
}

func TestStreamTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteMessage(sampleMessage()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(trunc))
	if _, err := r.ReadMessage(); err == nil {
		t.Error("expected error for truncated frame")
	}
}

func TestQuickRandomMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		m := randomMessage(rng)
		enc := m.Encode(nil)
		dec, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode random message: %v", err)
		}
		if n != len(enc) || !reflect.DeepEqual(m, dec) {
			t.Fatal("random message round trip mismatch")
		}
	}
}

func randomMessage(rng *rand.Rand) *Message {
	m := &Message{Full: rng.Intn(2) == 0}
	for i := 0; i < rng.Intn(5); i++ {
		data := make([]byte, 8)
		rng.Read(data)
		m.Wantlist = append(m.Wantlist, Entry{
			Type:         EntryType(rng.Intn(3) + 1),
			CID:          cid.Sum(cid.Raw, data),
			Priority:     int32(rng.Int31()) - 1<<30,
			SendDontHave: rng.Intn(2) == 0,
		})
	}
	for i := 0; i < rng.Intn(5); i++ {
		data := make([]byte, 8)
		rng.Read(data)
		m.Presences = append(m.Presences, Presence{
			Type: PresenceType(rng.Intn(2) + 1),
			CID:  cid.Sum(cid.DagProtobuf, data),
		})
	}
	for i := 0; i < rng.Intn(3); i++ {
		data := make([]byte, rng.Intn(64)+1)
		rng.Read(data)
		m.Blocks = append(m.Blocks, Block{CID: cid.Sum(cid.Raw, data), Data: data})
	}
	return m
}
