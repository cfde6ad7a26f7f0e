package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

// randomIOEntry builds an entry exercising every serialised field: all
// entry types (including CANCEL), all flag combinations, out-of-order
// timestamps (negative deltas), awkward strings, and both CID codecs.
func randomIOEntry(rng *rand.Rand) Entry {
	var id simnet.NodeID
	rng.Read(id[:])
	monitors := []string{"us", "de", "", "mon,itor", `mon"itor`, "mon\nitor"}
	addrs := []string{"3.0.0.1:4001", "", "[::1]:4001", "addr,with,commas", "addr\"quoted\""}
	codecs := []cid.Codec{cid.Raw, cid.DagProtobuf, cid.DagCBOR}
	return Entry{
		// Whole-second spread around t0, both directions, plus sub-second
		// noise: deltas in the varint encoding go negative.
		Timestamp: t0.Add(time.Duration(rng.Intn(7200)-3600)*time.Second +
			time.Duration(rng.Intn(1e9))*time.Nanosecond).UTC(),
		Monitor: monitors[rng.Intn(len(monitors))],
		NodeID:  id,
		Addr:    addrs[rng.Intn(len(addrs))],
		Type:    wire.EntryType(rng.Intn(3) + 1),
		CID:     cid.Sum(codecs[rng.Intn(len(codecs))], []byte{byte(rng.Intn(64))}),
		Flags:   Flag(rng.Intn(4)),
	}
}

// TestQuickWriterReaderRoundTrip: Writer→Reader preserves every entry
// exactly, for arbitrary traces.
func TestQuickWriterReaderRoundTrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]Entry, int(size))
		for i := range in {
			in[i] = randomIOEntry(rng)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range in {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out, err := readAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriterReaderEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("empty trace read: %v, want io.EOF", err)
	}
}

func TestReaderIgnoresTrailingBytes(t *testing.T) {
	// Segment files append a footer after the gzip stream; the reader
	// must stop cleanly at the stream's end instead of choking on it.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e := entry("us", 1, "x", wire.WantHave, t0)
	if err := w.Write(e); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trailing footer bytes, not gzip")
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := readAll(r)
	if err != nil {
		t.Fatalf("trailing bytes broke the reader: %v", err)
	}
	if len(out) != 1 || out[0] != e {
		t.Errorf("round trip with trailer: %+v", out)
	}
}

// TestQuickWriteCSVSerializesEveryField: every field survives CSV encoding
// (including quoting/escaping of commas, quotes and newlines) and parses
// back with a standard CSV reader.
func TestQuickWriteCSVSerializesEveryField(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]Entry, int(size)%32)
		for i := range in {
			in[i] = randomIOEntry(rng)
		}
		var buf bytes.Buffer
		if err := writeCSV(&buf, in); err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("seed %d: CSV output does not re-parse: %v", seed, err)
		}
		if len(rows) != len(in)+1 {
			return false
		}
		want := []string{"timestamp", "monitor", "node_id", "address", "request_type", "cid", "flags"}
		if !reflect.DeepEqual(rows[0], want) {
			return false
		}
		for i, e := range in {
			row := rows[i+1]
			ts, err := time.Parse(time.RFC3339Nano, row[0])
			if err != nil || !ts.Equal(e.Timestamp) {
				return false
			}
			if row[1] != e.Monitor || row[2] != e.NodeID.HexFull() || row[3] != e.Addr {
				return false
			}
			typ, err := wire.ParseEntryType(row[4])
			if err != nil || typ != e.Type {
				return false
			}
			if row[5] != e.CID.String() {
				return false
			}
			if row[6] != strconv.Itoa(int(e.Flags)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickCSVRoundTrip: CSVWriter→CSVReader preserves every entry exactly,
// for arbitrary traces — the CSV exchange format is lossless in both
// directions (CID round-trips through its string form).
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]Entry, int(size)%32)
		for i := range in {
			in[i] = randomIOEntry(rng)
		}
		var buf bytes.Buffer
		if err := writeCSV(&buf, in); err != nil {
			t.Fatal(err)
		}
		r, err := NewCSVReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var out []Entry
		for {
			e, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			out = append(out, e)
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			want := in[i]
			got := out[i]
			// The string CID form re-encodes to the same CID; compare by key.
			if !got.Timestamp.Equal(want.Timestamp) || got.Monitor != want.Monitor ||
				got.NodeID != want.NodeID || got.Addr != want.Addr ||
				got.Type != want.Type || !got.CID.Equal(want.CID) || got.Flags != want.Flags {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCSVReaderRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "a,b,c,d,e,f,g\n"},
		{"bad node id", "timestamp,monitor,node_id,address,request_type,cid,flags\n" +
			"2021-04-30T00:00:00Z,us,zz,1.2.3.4:1,WANT_HAVE,x,0\n"},
	} {
		r, err := NewCSVReader(bytes.NewReader([]byte(tc.in)))
		if err == nil {
			_, err = r.Read()
		}
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestCSVWriterEmptyStillWritesHeader(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

// batchSummary counts what a Summarizer reports, with maps.
func batchSummary(entries []Entry) Summary {
	s := Summary{PerMonitor: map[string]int{}, PerType: map[wire.EntryType]int{}}
	peers, cids := map[simnet.NodeID]bool{}, map[cid.CID]bool{}
	for _, e := range entries {
		s.Entries++
		if e.IsRequest() {
			s.Requests++
		}
		peers[e.NodeID], cids[e.CID] = true, true
		if e.Flags&FlagRebroadcast != 0 {
			s.Rebroadcasts++
		}
		if e.Flags&FlagInterMonitorDup != 0 {
			s.InterMonDups++
		}
		s.PerMonitor[e.Monitor]++
		s.PerType[e.Type]++
		if s.First.IsZero() || e.Timestamp.Before(s.First) {
			s.First = e.Timestamp
		}
		if e.Timestamp.After(s.Last) {
			s.Last = e.Timestamp
		}
	}
	s.UniquePeers, s.UniqueCIDs = len(peers), len(cids)
	return s
}

// TestQuickSummarizerMatchesBatch: the incremental Summarizer agrees with
// a batch count over maps on arbitrary traces.
func TestQuickSummarizerMatchesBatch(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]Entry, int(size))
		for i := range in {
			in[i] = randomIOEntry(rng)
		}
		z := NewSummarizerWith(NewSymbols())
		for _, e := range in {
			if err := z.Write(e); err != nil {
				return false
			}
		}
		return reflect.DeepEqual(z.Summary(), batchSummary(in))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// errDisk is the failure a failAfter destination reports.
var errDisk = errors.New("disk full")

// failAfter takes n bytes, then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errDisk
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterCorruptStreamDetected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Write(entry("us", byte(i), fmt.Sprint(i), wire.WantBlock, t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncating inside the gzip payload must surface an error, not a
	// silent short read of zero entries... though a mid-record cut can
	// also surface as a clean EOF from the decompressor; either way it
	// must not panic and must not return all 10 entries.
	raw := buf.Bytes()
	trunc := bytes.NewReader(raw[:len(raw)-7])
	r, err := NewReader(trunc)
	if err != nil {
		return // header already unreadable: fine
	}
	out, err := readAll(r)
	if err == nil && len(out) == 10 {
		t.Error("truncated stream returned complete trace")
	}

	// A destination that fails after n bytes: the chunk being deflated
	// beside the caller fails, and a later Write or Close reports it —
	// every one after the first — whether the failure hits the gzip
	// header, a deflate block or the trailer. A Reset then writes a clean
	// stream.
	in := randomTrace(rand.New(rand.NewSource(11)), 10000)
	_, fresh := encode(t, nil, in)
	for _, n := range []int{0, 9, 10, 600, len(fresh) / 2, len(fresh) - 1} {
		w, err := NewWriter(&failAfter{n: n})
		if err != nil {
			t.Fatal(err)
		}
		var first error
		for i, e := range in {
			err := w.Write(e)
			if first != nil && err == nil {
				t.Fatalf("fail after %d: Write %d succeeded after %v", n, i, first)
			}
			if first == nil {
				first = err
			}
		}
		if err := w.Close(); !errors.Is(err, errDisk) {
			t.Errorf("fail after %d: Close = %v after first Write error %v, want %v", n, err, first, errDisk)
		}
		if first != nil && !errors.Is(first, errDisk) {
			t.Errorf("fail after %d: Write error %v, want %v", n, first, errDisk)
		}
		if _, again := encode(t, w, in); !bytes.Equal(again, fresh) {
			t.Errorf("fail after %d: Writer Reset after the failure wrote %d bytes that differ from a new Writer's %d", n, len(again), len(fresh))
		}
	}
}

// encode renders entries through w, which is Reset onto a fresh buffer first
// when it is not nil.
func encode(t *testing.T, w *Writer, entries []Entry) (*Writer, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if w == nil {
		var err error
		if w, err = NewWriter(&buf); err != nil {
			t.Fatal(err)
		}
	} else {
		w.Reset(&buf)
	}
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w, buf.Bytes()
}

// decode reads a whole stream through r, which is Reset onto it first when
// it is not nil.
func decode(t *testing.T, r *Reader, stream []byte) (*Reader, []Entry) {
	t.Helper()
	var err error
	if r == nil {
		r, err = NewReader(bytes.NewReader(stream))
	} else {
		err = r.Reset(bytes.NewReader(stream))
	}
	if err != nil {
		t.Fatal(err)
	}
	out, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return r, out
}

// firstDiff returns the index of the first entry at which a and b differ
// (the shorter one's length when it is a prefix of the other), or -1.
func firstDiff(a, b []Entry) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// overflowTrace builds a stream with more distinct peers and more distinct
// CIDs than a dictionary holds, each revisited after its dictionary has been
// cleared and again shortly after (a ref, then a literal, then a ref).
func overflowTrace() []Entry {
	const peers, cids = dictCap + 1500, dictCap + 700
	n := 2*cids + 5000
	out := make([]Entry, n)
	for i := range out {
		p, c := i%peers, i%cids
		if i%3 == 2 {
			p, c = (i-2)%peers, (i-2)%cids // a repeat from two records back
		}
		var id simnet.NodeID
		id[0], id[1], id[2] = byte(p), byte(p>>8), byte(p>>16)
		out[i] = Entry{
			Timestamp: t0.Add(time.Duration(i) * time.Millisecond),
			Monitor:   "us",
			NodeID:    id,
			Addr:      "3.0.0.1:4001",
			Type:      wire.EntryType(i%3 + 1),
			CID:       cid.Sum(cid.Raw, []byte{byte(c), byte(c >> 8), byte(c >> 16)}),
		}
	}
	return out
}

// TestRoundTripBeyondDictionaryCap: writer and reader clear a full
// dictionary at the same literal, so refs keep resolving past the cap.
func TestRoundTripBeyondDictionaryCap(t *testing.T) {
	in := overflowTrace()
	_, stream := encode(t, nil, in)
	_, out := decode(t, nil, stream)
	if i := firstDiff(in, out); i >= 0 {
		t.Fatalf("wrote %d entries, read %d, first difference at %d", len(in), len(out), i)
	}
}

// TestRoundTripPeerAddressChange: the peer dictionary codes (node ID,
// address) pairs, so a peer that comes back from another address, or with
// none, must not be handed its earlier one.
func TestRoundTripPeerAddressChange(t *testing.T) {
	at := func(mon string, node byte, addr string) Entry {
		e := entry(mon, node, "x", wire.WantHave, t0)
		e.Addr = addr
		return e
	}
	in := []Entry{
		at("us", 1, "3.0.0.1:4001"),
		at("us", 1, "3.0.0.1:4001"),
		at("us", 1, "3.0.0.2:4001"),
		at("", 1, "3.0.0.1:4001"),
		at("", 1, ""),
		at("us", 2, ""),
		at("", 1, "3.0.0.2:4001"),
		at("us", 1, ""),
	}
	_, stream := encode(t, nil, in)
	_, out := decode(t, nil, stream)
	if i := firstDiff(in, out); i >= 0 {
		t.Errorf("first difference at entry %d:\n got %+v\nwant %+v", i, out, in)
	}
}

// TestResetReuse: a Writer that was Reset writes the bytes a new Writer
// would, and a Reader that was Reset reads the entries a new Reader would,
// whatever the stream before left in their dictionaries and buffers —
// including a Reader whose previous stream ended in an error.
func TestResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	small := make([]Entry, 300)
	for i := range small {
		small[i] = randomIOEntry(rng)
	}
	traces := [][]Entry{small, overflowTrace(), nil, small[:17], randomTrace(rng, 2000)}

	var w *Writer
	var r *Reader
	for i, in := range traces {
		_, fresh := encode(t, nil, in)
		var reused []byte
		w, reused = encode(t, w, in)
		if !bytes.Equal(fresh, reused) {
			t.Fatalf("trace %d: reused Writer wrote %d bytes that differ from a new Writer's %d", i, len(reused), len(fresh))
		}
		var out []Entry
		r, out = decode(t, r, fresh)
		if d := firstDiff(in, out); d >= 0 {
			t.Fatalf("trace %d: reused Reader read %d entries of %d written, first difference at %d", i, len(out), len(in), d)
		}
		// Leave the Reader mid-stream in an error before its next reuse.
		if err := r.Reset(bytes.NewReader(fresh[:len(fresh)*2/3])); err == nil {
			if _, err := readAll(r); err == nil {
				t.Fatalf("trace %d: truncated stream read without error", i)
			}
		}
	}
}

// rawStream wraps payload as a trace stream's gzip member, so a test can
// hand the Reader records no Writer would produce.
func rawStream(t interface{ Fatal(...any) }, payload string) []byte {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cidLiteral is a well-formed CID literal: length prefix and binary CID.
var cidLiteral = func() string {
	key := cid.Sum(cid.Raw, []byte("x")).Key()
	return string(rune(len(key))) + key
}()

// Pieces of hand-built records: a timestamp delta of 0, literals for monitor
// "us" and for a peer at address "a", WANT_BLOCK without flags, and
// goodRecord, a well-formed first record made of them.
const (
	recTS   = "\x00"
	recMon  = "\x00\x02us"
	recType = "\x01\x00"
)

var (
	recPeer    = "\x00" + strings.Repeat("\x07", 32) + "\x01a"
	goodRecord = recTS + recMon + recPeer + recType + "\x00" + cidLiteral
)

// midLiteralStream ends inside the first record's CID literal.
func midLiteralStream(t interface{ Fatal(...any) }) []byte {
	return rawStream(t, string(fileMagic)+goodRecord[:len(goodRecord)-9])
}

// TestReaderRejectsMalformedRecords: whatever a stream holds, the Reader
// answers with an error wrapping ErrBadTrace; it never panics and never
// resolves a ref it was not given.
func TestReaderRejectsMalformedRecords(t *testing.T) {
	const (
		ts, mon, typ = recTS, recMon, recType
		refHuge      = "\xff\xff\xff\xff\x0f" // ref 2^32-1
	)
	peerLit, good := recPeer, goodRecord
	over := strings.Repeat("\xff", 10) + "\x01" // a varint of 11 bytes
	for _, tc := range []struct {
		name, payload, want string
	}{
		{"previous format", "BSTRACE1" + good, `"BSTRACE1"`},
		{"foreign magic", "NOTTRACE" + good, "bad magic"},
		{"short magic", "BSTR", "missing header"},
		{"monitor ref into empty dictionary", string(fileMagic) + ts + "\x01", "ref 1"},
		{"monitor ref past the dictionary", string(fileMagic) + good + ts + "\x02", "ref 2"},
		{"peer ref into empty dictionary", string(fileMagic) + ts + mon + "\x01", "ref 1"},
		{"peer ref past the dictionary", string(fileMagic) + good + ts + "\x01" + refHuge, "ref 4294967295"},
		{"cid ref into empty dictionary", string(fileMagic) + ts + mon + peerLit + typ + "\x03", "ref 3"},
		{"cid ref past the dictionary", string(fileMagic) + good + ts + "\x01\x01" + typ + "\x02", "ref 2"},
		{"ref overflows", string(fileMagic) + ts + over, "overflows"},
		{"timestamp overflows", string(fileMagic) + over, "overflows"},
		{"literal longer than the limit", string(fileMagic) + ts + "\x00\x81\x80\x04", "literal of 65537 bytes"},
		{"cid literal is not a CID", string(fileMagic) + ts + mon + peerLit + typ + "\x00\x02zz", "cid"},
		{"cut in the timestamp", string(fileMagic) + good + "\x80", "timestamp"},
		{"cut after the monitor", string(fileMagic) + ts + mon, "peer"},
		{"cut in the node id", string(fileMagic) + ts + mon + "\x00\x07\x07", "truncated"},
		{"cut before type and flags", string(fileMagic) + ts + mon + peerLit, "truncated"},
		{"cut in the cid literal", string(fileMagic) + good[:len(good)-9], "truncated"},
	} {
		r, err := NewReader(bytes.NewReader(rawStream(t, tc.payload)))
		if err == nil {
			_, err = readAll(r)
		}
		if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one wrapping ErrBadTrace and naming %s", tc.name, err, tc.want)
		}
	}
	// A decode error arrives after exactly the records before it, wherever
	// it falls against the batches the Reader decodes ahead, and every
	// later Read repeats it.
	for _, before := range []int{batchSize - 1, batchSize, batchSize + 1, 2 * batchSize} {
		payload := string(fileMagic) + good + strings.Repeat(ts+"\x01\x01"+typ+"\x01", before-1) + ts + "\x02"
		r, err := NewReader(bytes.NewReader(rawStream(t, payload)))
		if err != nil {
			t.Fatal(err)
		}
		out, err := readAll(r)
		if len(out) != before || !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "ref 2") {
			t.Errorf("error after %d records: read %d, then %v", before, len(out), err)
		}
		for range 3 {
			if _, again := r.Read(); again == nil || again.Error() != err.Error() {
				t.Errorf("error after %d records: a later Read returned %v, want %v", before, again, err)
			}
		}
	}
	// A small trace cut at every byte offset yields a prefix of its
	// entries and then ErrBadTrace on every Read, unless NewReader already
	// refuses what is left (no gzip header, or no magic).
	in := randomTrace(rand.New(rand.NewSource(5)), 40)
	_, stream := encode(t, nil, in)
	for cut := range len(stream) {
		r, err := NewReader(bytes.NewReader(stream[:cut]))
		if err != nil {
			continue
		}
		out, err := readAll(r)
		if d := firstDiff(in, out); d >= 0 && d < len(out) || !errors.Is(err, ErrBadTrace) {
			t.Fatalf("cut at %d of %d: read %d entries, first difference at %d, then %v", cut, len(stream), len(out), d, err)
		}
		for range 2 {
			if _, again := r.Read(); !errors.Is(again, ErrBadTrace) {
				t.Fatalf("cut at %d of %d: Read after %v returned %v", cut, len(stream), err, again)
			}
		}
		r.Close()
	}
	// The well-formed record the cases above are built from does decode.
	r, err := NewReader(bytes.NewReader(rawStream(t, string(fileMagic)+good+ts+"\x01\x01"+typ+"\x01")))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := readAll(r); err != nil || len(out) != 2 || out[0] != out[1] || out[0].Monitor != "us" || out[0].Addr != "a" {
		t.Errorf("hand-built stream: %+v, %v", out, err)
	}
}

// settleGoroutines waits until no more than base goroutines run, failing
// after a second: a goroutine that has signalled its exit may take a moment
// to leave the count.
func settleGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReaderGoroutineEndsWithItsStream: the goroutine a Reader decodes
// ahead on does not outlive the stream, however the stream is left.
func TestReaderGoroutineEndsWithItsStream(t *testing.T) {
	// Longer than the batches the goroutine fills ahead, so it is blocked
	// mid-stream when the caller walks away.
	in := randomTrace(rand.New(rand.NewSource(13)), 4*batches*batchSize)
	_, stream := encode(t, nil, in)
	open := func(t *testing.T, stream []byte) *Reader {
		t.Helper()
		r, err := NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := runtime.NumGoroutine()

	r := open(t, stream)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Error("Read after Close returned an entry")
	}
	settleGoroutines(t, "closed mid-stream", base)

	r = open(t, stream)
	_, out := decode(t, r, stream)
	if d := firstDiff(in, out); d >= 0 {
		t.Fatalf("reset mid-stream: read %d entries of %d, first difference at %d", len(out), len(in), d)
	}
	settleGoroutines(t, "reset mid-stream", base)

	cut := open(t, stream[:len(stream)/2])
	if out, err := readAll(cut); !errors.Is(err, ErrBadTrace) || len(out) == 0 {
		t.Fatalf("cut stream: read %d entries, then %v", len(out), err)
	}
	settleGoroutines(t, "read up to a decode error", base)
}
