package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

// File format (BSTRACE2): one gzip member holding the magic, then records:
//
//	varint   timestamp delta (unix nanoseconds, against the previous record)
//	uvarint  monitor ref   0: a literal follows (uvarint length, bytes)
//	uvarint  peer ref      0: a literal follows (32-byte node ID, uvarint length, address bytes)
//	byte     entry type
//	byte     flags
//	uvarint  CID ref       0: a literal follows (uvarint length, binary CID)
//
// Monitor, (node ID, address) pair and CID are dictionary-coded per stream:
// a literal takes the next index of its dictionary, and ref k > 0 names the
// k-th literal since that dictionary was last cleared. The paper's monitors
// produced 3.5 TB compressed over fifteen months and nearly every record
// repeats a peer and a CID seen before; a repeat costs 1-3 bytes here, not
// 47-70, so deflate is handed about a tenth of the bytes.
//
// A dictionary holds at most dictCap literals: a literal arriving at a full
// one clears it and takes index 1. Writer and reader count literals the same
// way, so the clear needs no marker in the stream, and the cap together with
// maxLiteral bounds the reader's memory on adversarial input. The reader's
// dictionaries double as its intern tables: every repeat of a monitor name,
// address or CID shares the first occurrence's allocation.
//
// What is left after dictionary coding is mostly first-occurrence hashes,
// which do not compress, so the stream is deflated at gzip.BestSpeed (README,
// "Streaming ingestion", has the measured sizes and times).
var fileMagic = []byte("BSTRACE2")

const (
	dictCap    = 1 << 16
	maxLiteral = 1 << 16
	// chunk is how many encoded bytes a Writer gathers before handing them
	// to the compressor, and how many decoded bytes a Reader asks the
	// decompressor for at a time.
	chunk = 16 << 10
)

// peer is what the peer dictionary codes as one value: a connected peer
// keeps its address, so the pair repeats together.
type peer struct {
	id   simnet.NodeID
	addr string
}

// dict is the writing half of one dictionary: the ref of every literal
// written since the last clear.
type dict[K comparable] map[K]uint32

// ref returns k's ref and whether k was already in the dictionary; if not,
// k has been entered as the next literal.
func (d dict[K]) ref(k K) (uint32, bool) {
	if r, ok := d[k]; ok {
		return r, true
	}
	if len(d) >= dictCap {
		clear(d)
	}
	r := uint32(len(d)) + 1
	d[k] = r
	return r, false
}

// table is the reading half: literals in arrival order, ref k at index k-1.
type table[V any] []V

// add enters v as the next literal, clearing at the count dict.ref does.
func (t *table[V]) add(v V) {
	if len(*t) >= dictCap {
		*t = (*t)[:0]
	}
	*t = append(*t, v)
}

func (t table[V]) get(ref uint64) (V, error) {
	if ref-1 >= uint64(len(t)) {
		var zero V
		return zero, fmt.Errorf("%w: ref %d into a dictionary of %d", ErrBadTrace, ref, len(t))
	}
	return t[ref-1], nil
}

// Writer writes a binary trace file.
type Writer struct {
	gz   *gzip.Writer
	buf  []byte // encoded records not yet handed to gz
	last int64  // previous timestamp (unix nanos) for delta encoding
	n    int

	mons  dict[string]
	peers dict[peer]
	cids  dict[cid.CID]
}

// NewWriter wraps w. The file header goes out with the first records.
func NewWriter(w io.Writer) (*Writer, error) {
	gz, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	return &Writer{
		gz:    gz,
		buf:   append(make([]byte, 0, chunk+chunk/4), fileMagic...),
		mons:  make(dict[string]),
		peers: make(dict[peer]),
		cids:  make(dict[cid.CID]),
	}, nil
}

// Reset drops whatever the Writer holds and starts a new stream into dst,
// keeping the compressor, the buffer and the dictionaries' storage. The
// stream is byte for byte what a new Writer would produce.
func (w *Writer) Reset(dst io.Writer) {
	w.gz.Reset(dst)
	w.buf = append(w.buf[:0], fileMagic...)
	w.last, w.n = 0, 0
	clear(w.mons)
	clear(w.peers)
	clear(w.cids)
}

// Write appends one entry.
func (w *Writer) Write(e Entry) error {
	b := w.buf
	ts := e.Timestamp.UnixNano()
	b = binary.AppendVarint(b, ts-w.last)
	w.last = ts
	if r, ok := w.mons.ref(e.Monitor); ok {
		b = binary.AppendUvarint(b, uint64(r))
	} else {
		b = appendString(append(b, 0), e.Monitor)
	}
	if r, ok := w.peers.ref(peer{e.NodeID, e.Addr}); ok {
		b = binary.AppendUvarint(b, uint64(r))
	} else {
		b = append(append(b, 0), e.NodeID[:]...)
		b = appendString(b, e.Addr)
	}
	b = append(b, byte(e.Type), byte(e.Flags))
	if r, ok := w.cids.ref(e.CID); ok {
		b = binary.AppendUvarint(b, uint64(r))
	} else {
		b = appendString(append(b, 0), e.CID.Key())
	}
	w.buf = b
	w.n++
	if len(b) >= chunk {
		return w.flush()
	}
	return nil
}

func (w *Writer) flush() error {
	_, err := w.gz.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		return fmt.Errorf("write records: %w", err)
	}
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }

// Close flushes and finalises the gzip stream (the underlying writer is not
// closed).
func (w *Writer) Close() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.gz.Close()
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader reads a binary trace file.
type Reader struct {
	src *bufio.Reader // compressed input; gz reads it as an io.ByteReader
	gz  *gzip.Reader
	// buf[pos:end] holds decompressed bytes not yet decoded; err is what gz
	// returned once it had no more to give.
	buf      []byte
	pos, end int
	err      error
	last     int64

	mons  table[string]
	peers table[peer]
	cids  table[cid.CID]
}

// ErrBadTrace is returned for malformed trace files.
var ErrBadTrace = errors.New("trace: malformed trace file")

// NewReader wraps r and validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{src: bufio.NewReader(r), buf: make([]byte, chunk)}
	gz, err := gzip.NewReader(tr.src)
	if err != nil {
		return nil, fmt.Errorf("open gzip: %w", err)
	}
	tr.gz = gz
	if err := tr.start(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Reset drops whatever the Reader holds and starts reading a new stream from
// src, keeping the decompressor, the buffers and the dictionaries' storage.
// After an error the Reader is still fit for another Reset.
func (r *Reader) Reset(src io.Reader) error {
	r.src.Reset(src)
	if err := r.gz.Reset(r.src); err != nil {
		return fmt.Errorf("open gzip: %w", err)
	}
	return r.start()
}

// start puts the Reader at the first record of the stream gz was just
// pointed at.
func (r *Reader) start() error {
	// A trace stream is a single gzip member; stop at its end instead of
	// probing for a follow-up member, so containers may append trailing
	// metadata (e.g. ingest segment footers) after the stream.
	r.gz.Multistream(false)
	r.pos, r.end, r.err, r.last = 0, 0, nil, 0
	r.mons, r.peers, r.cids = r.mons[:0], r.peers[:0], r.cids[:0]
	magic, err := r.next(len(fileMagic))
	if err != nil {
		return fmt.Errorf("%w: missing header", ErrBadTrace)
	}
	if string(magic) != string(fileMagic) {
		if string(magic[:len(magic)-1]) == string(fileMagic[:len(fileMagic)-1]) {
			return fmt.Errorf("%w: format version %q, this reader decodes only %q", ErrBadTrace, magic, fileMagic)
		}
		return fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	return nil
}

// more decompresses until n undecoded bytes are buffered or the stream has
// ended, and reports whether n are there.
func (r *Reader) more(n int) bool {
	if r.pos > 0 {
		r.end = copy(r.buf, r.buf[r.pos:r.end])
		r.pos = 0
	}
	if n > len(r.buf) {
		r.buf = append(r.buf[:r.end], make([]byte, n-r.end)...)
	}
	for r.end < n && r.err == nil {
		var m int
		m, r.err = r.gz.Read(r.buf[r.end:])
		r.end += m
	}
	return r.end >= n
}

// short is the error for a record cut off by the end of the stream.
func (r *Reader) short(what string) error {
	err := r.err
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %s: %v", ErrBadTrace, what, err)
}

// next returns the next n undecoded bytes; they are valid until the next
// call that reads.
func (r *Reader) next(n int) ([]byte, error) {
	if r.end-r.pos < n && !r.more(n) {
		return nil, r.short("truncated")
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *Reader) uvarint(what string) (uint64, error) {
	if r.end-r.pos < binary.MaxVarintLen64 {
		r.more(binary.MaxVarintLen64)
	}
	v, n := binary.Uvarint(r.buf[r.pos:r.end])
	if n <= 0 {
		if n < 0 {
			return 0, fmt.Errorf("%w: %s: varint overflows 64 bits", ErrBadTrace, what)
		}
		return 0, r.short(what)
	}
	r.pos += n
	return v, nil
}

// literal reads one length-prefixed byte string.
func (r *Reader) literal(what string) ([]byte, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return nil, err
	}
	if n > maxLiteral {
		return nil, fmt.Errorf("%w: %s: literal of %d bytes", ErrBadTrace, what, n)
	}
	return r.next(int(n))
}

// Read returns the next entry, or io.EOF at end of stream.
func (r *Reader) Read() (Entry, error) {
	var e Entry
	if r.pos == r.end && !r.more(1) && r.err == io.EOF {
		return e, io.EOF
	}
	ud, err := r.uvarint("timestamp")
	if err != nil {
		return e, err
	}
	delta := int64(ud >> 1) // zig-zag, as binary.AppendVarint writes it
	if ud&1 != 0 {
		delta = ^delta
	}
	r.last += delta
	e.Timestamp = time.Unix(0, r.last).UTC()

	ref, err := r.uvarint("monitor")
	if err != nil {
		return e, err
	}
	if ref != 0 {
		if e.Monitor, err = r.mons.get(ref); err != nil {
			return e, err
		}
	} else {
		b, err := r.literal("monitor")
		if err != nil {
			return e, err
		}
		e.Monitor = string(b)
		r.mons.add(e.Monitor)
	}

	if ref, err = r.uvarint("peer"); err != nil {
		return e, err
	}
	if ref != 0 {
		p, err := r.peers.get(ref)
		if err != nil {
			return e, err
		}
		e.NodeID, e.Addr = p.id, p.addr
	} else {
		b, err := r.next(len(e.NodeID))
		if err != nil {
			return e, err
		}
		copy(e.NodeID[:], b)
		if b, err = r.literal("address"); err != nil {
			return e, err
		}
		e.Addr = string(b)
		r.peers.add(peer{e.NodeID, e.Addr})
	}

	b, err := r.next(2)
	if err != nil {
		return e, err
	}
	e.Type, e.Flags = wire.EntryType(b[0]), Flag(b[1])

	if ref, err = r.uvarint("cid"); err != nil {
		return e, err
	}
	if ref != 0 {
		if e.CID, err = r.cids.get(ref); err != nil {
			return e, err
		}
	} else {
		if b, err = r.literal("cid"); err != nil {
			return e, err
		}
		if e.CID, err = cid.Decode(b); err != nil {
			return e, fmt.Errorf("%w: cid: %v", ErrBadTrace, err)
		}
		r.cids.add(e.CID)
	}
	return e, nil
}

// Close closes the gzip reader.
func (r *Reader) Close() error { return r.gz.Close() }

// ReadAll drains a reader into memory.
func ReadAll(r *Reader) ([]Entry, error) {
	var out []Entry
	for {
		e, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// CSVWriter streams entries as CSV rows, the exchange format for external
// analysis tooling. The header row is written on the first entry (or on
// Close for an empty trace), so a CSVWriter can sit at the end of a
// pipeline without buffering.
type CSVWriter struct {
	cw     *csv.Writer
	header bool
}

// NewCSVWriter wraps w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{cw: csv.NewWriter(w)}
}

var csvHeader = []string{"timestamp", "monitor", "node_id", "address", "request_type", "cid", "flags"}

// Write renders one entry as a CSV row.
func (w *CSVWriter) Write(e Entry) error {
	if !w.header {
		if err := w.cw.Write(csvHeader); err != nil {
			return err
		}
		w.header = true
	}
	return w.cw.Write([]string{
		e.Timestamp.UTC().Format(time.RFC3339Nano),
		e.Monitor,
		e.NodeID.HexFull(),
		e.Addr,
		e.Type.String(),
		e.CID.String(),
		strconv.Itoa(int(e.Flags)),
	})
}

// Close flushes buffered rows (writing the header even if no entries were
// written). The underlying writer is not closed.
func (w *CSVWriter) Close() error {
	if !w.header {
		if err := w.cw.Write(csvHeader); err != nil {
			return err
		}
		w.header = true
	}
	w.cw.Flush()
	return w.cw.Error()
}

// WriteCSV renders entries as CSV with a header row.
func WriteCSV(w io.Writer, entries []Entry) error {
	cw := NewCSVWriter(w)
	for _, e := range entries {
		if err := cw.Write(e); err != nil {
			return err
		}
	}
	return cw.Close()
}

// CSVReader streams entries back out of the CSV exchange format written by
// CSVWriter, so externally produced or exported traces can feed the same
// pipelines (unification, replay) as binary traces. It satisfies the
// ingest.EntrySource shape: Read returns io.EOF after the last row.
type CSVReader struct {
	cr *csv.Reader
}

// ErrBadCSV is returned for rows that do not parse as trace entries.
var ErrBadCSV = errors.New("trace: malformed trace CSV")

// NewCSVReader wraps r and validates the header row.
func NewCSVReader(r io.Reader) (*CSVReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadCSV, err)
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return nil, fmt.Errorf("%w: header column %d is %q, want %q", ErrBadCSV, i, header[i], col)
		}
	}
	return &CSVReader{cr: cr}, nil
}

// Read returns the next entry, or io.EOF at end of input.
func (r *CSVReader) Read() (Entry, error) {
	var e Entry
	rec, err := r.cr.Read()
	if err == io.EOF {
		return e, io.EOF
	}
	if err != nil {
		return e, fmt.Errorf("%w: %v", ErrBadCSV, err)
	}
	if e.Timestamp, err = time.Parse(time.RFC3339Nano, rec[0]); err != nil {
		return e, fmt.Errorf("%w: timestamp %q: %v", ErrBadCSV, rec[0], err)
	}
	e.Timestamp = e.Timestamp.UTC()
	e.Monitor = rec[1]
	raw, err := hex.DecodeString(rec[2])
	if err != nil || len(raw) != len(e.NodeID) {
		return e, fmt.Errorf("%w: node id %q", ErrBadCSV, rec[2])
	}
	copy(e.NodeID[:], raw)
	e.Addr = rec[3]
	if e.Type, err = wire.ParseEntryType(rec[4]); err != nil {
		return e, fmt.Errorf("%w: %v", ErrBadCSV, err)
	}
	if e.CID, err = cid.Parse(rec[5]); err != nil {
		return e, fmt.Errorf("%w: cid %q: %v", ErrBadCSV, rec[5], err)
	}
	flags, err := strconv.Atoi(rec[6])
	if err != nil || flags < 0 || flags > 255 {
		return e, fmt.Errorf("%w: flags %q", ErrBadCSV, rec[6])
	}
	e.Flags = Flag(flags)
	return e, nil
}
