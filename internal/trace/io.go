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

// Writer writes a binary trace file. Records are dictionary-coded on the
// caller's goroutine; each full chunk is deflated on a goroutine of its own
// while the caller codes the next chunk into the other of two buffers. At
// most one chunk is in flight, and the compressor sees the same sequence of
// writes, without a Flush, as if it ran on the caller's goroutine, so the
// stream is byte for byte the same.
//
// The in-flight chunk is written to the destination by that goroutine: close
// or reuse the destination only after Close or Reset has returned.
type Writer struct {
	gz *gzip.Writer
	// buf holds encoded records not yet handed to gz; spare is the other
	// buffer, the chunk in flight while busy.
	buf, spare []byte
	busy       bool
	done       chan error // the in-flight chunk's result
	err        error      // first compress error, returned until Reset
	last       int64      // previous timestamp (unix nanos) for delta encoding

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
		spare: make([]byte, 0, chunk+chunk/4),
		done:  make(chan error, 1),
		mons:  make(dict[string]),
		peers: make(dict[peer]),
		cids:  make(dict[cid.CID]),
	}, nil
}

// Reset waits for the chunk in flight, drops whatever the Writer holds,
// including a compress error, and starts a new stream into dst, keeping the
// compressor, the buffers and the dictionaries' storage. The stream is byte
// for byte what a new Writer would produce.
func (w *Writer) Reset(dst io.Writer) {
	w.wait()
	w.err = nil
	w.gz.Reset(dst)
	w.buf = append(w.buf[:0], fileMagic...)
	w.last = 0
	clear(w.mons)
	clear(w.peers)
	clear(w.cids)
}

// Write appends one entry. A compress error of an earlier chunk is returned
// here at the latest when the next chunk is handed over, and by every Write
// after it.
func (w *Writer) Write(e Entry) error {
	if w.err != nil {
		return w.err
	}
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
	if len(b) >= chunk {
		return w.handOff()
	}
	return nil
}

// handOff waits for the chunk in flight, then deflates buf on a goroutine
// and continues in the spare buffer.
func (w *Writer) handOff() error {
	if err := w.wait(); err != nil {
		return err
	}
	gz, full, done := w.gz, w.buf, w.done
	w.buf, w.spare, w.busy = w.spare[:0], full, true
	go func() {
		_, err := gz.Write(full)
		done <- err
	}()
	return nil
}

// wait blocks until no chunk is in flight and returns the first compress
// error.
func (w *Writer) wait() error {
	if w.busy {
		w.busy = false
		if err := <-w.done; err != nil && w.err == nil {
			w.err = fmt.Errorf("write records: %w", err)
		}
	}
	return w.err
}

// Close waits for the chunk in flight, deflates the rest and finalises the
// gzip stream (the underlying writer is not closed). It returns the first
// compress error of the stream.
func (w *Writer) Close() error {
	if err := w.wait(); err != nil {
		return err
	}
	_, err := w.gz.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		w.err = fmt.Errorf("write records: %w", err)
		return w.err
	}
	return w.gz.Close()
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader reads a binary trace file. The header is checked on the caller's
// goroutine; after it, a ReadAhead's goroutine inflates and decodes
// records into batches ahead of the caller, and Read hands out their
// entries in order.
//
// That goroutine reads the source: close the Reader, or Reset it onto
// another source, before closing its source.
type Reader struct {
	d decoder
	a ReadAhead
}

// ErrBadTrace is returned for malformed trace files.
var ErrBadTrace = errors.New("trace: malformed trace file")

// NewReader wraps r and validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{d: decoder{src: bufio.NewReader(r), buf: make([]byte, chunk)}}
	gz, err := gzip.NewReader(tr.d.src)
	if err != nil {
		return nil, fmt.Errorf("open gzip: %w", err)
	}
	tr.d.gz = gz
	if err := tr.start(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Reset stops the decoding goroutine, drops whatever the Reader holds and
// starts reading a new stream from src, keeping the decompressor, the
// buffers and the dictionaries' storage. After an error, and after Close,
// the Reader is still fit for another Reset.
func (r *Reader) Reset(src io.Reader) error {
	r.a.halt(errClosed)
	r.d.src.Reset(src)
	if err := r.d.gz.Reset(r.d.src); err != nil {
		err = fmt.Errorf("open gzip: %w", err)
		r.a.halt(err)
		return err
	}
	return r.start()
}

// start checks the header of the stream gz was just pointed at and starts
// the goroutine that decodes the records after it. It expects no goroutine
// to run.
func (r *Reader) start() error {
	if err := r.d.start(); err != nil {
		r.a.halt(err)
		return err
	}
	r.a.start(r.d.decode)
	return nil
}

// Read returns the next entry, or io.EOF at end of stream. Once it has
// returned an error it returns the same error until Reset.
func (r *Reader) Read() (Entry, error) { return r.a.Read() }

// Close stops the decoding goroutine, waits for it to exit and closes the
// gzip reader. The source is not closed; Close the Reader before it.
func (r *Reader) Close() error {
	r.a.Close()
	return r.d.gz.Close()
}

// decoder inflates and decodes one stream's records. While a Reader's
// read-ahead goroutine runs, the decoder is that goroutine's alone.
type decoder struct {
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

// start puts the decoder at the first record of the stream gz was just
// pointed at.
func (d *decoder) start() error {
	// A trace stream is a single gzip member; stop at its end instead of
	// probing for a follow-up member, so containers may append trailing
	// metadata (e.g. ingest segment footers) after the stream.
	d.gz.Multistream(false)
	d.pos, d.end, d.err, d.last = 0, 0, nil, 0
	d.mons, d.peers, d.cids = d.mons[:0], d.peers[:0], d.cids[:0]
	magic, err := d.next(len(fileMagic))
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
func (d *decoder) more(n int) bool {
	if d.pos > 0 {
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
	if n > len(d.buf) {
		d.buf = append(d.buf[:d.end], make([]byte, n-d.end)...)
	}
	for d.end < n && d.err == nil {
		var m int
		m, d.err = d.gz.Read(d.buf[d.end:])
		d.end += m
	}
	return d.end >= n
}

// short is the error for a record cut off by the end of the stream.
func (d *decoder) short(what string) error {
	err := d.err
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %s: %v", ErrBadTrace, what, err)
}

// next returns the next n undecoded bytes; they are valid until the next
// call that reads.
func (d *decoder) next(n int) ([]byte, error) {
	if d.end-d.pos < n && !d.more(n) {
		return nil, d.short("truncated")
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) uvarint(what string) (uint64, error) {
	if d.end-d.pos < binary.MaxVarintLen64 {
		d.more(binary.MaxVarintLen64)
	}
	v, n := binary.Uvarint(d.buf[d.pos:d.end])
	if n <= 0 {
		if n < 0 {
			return 0, fmt.Errorf("%w: %s: varint overflows 64 bits", ErrBadTrace, what)
		}
		return 0, d.short(what)
	}
	d.pos += n
	return v, nil
}

// literal reads one length-prefixed byte string.
func (d *decoder) literal(what string) ([]byte, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return nil, err
	}
	if n > maxLiteral {
		return nil, fmt.Errorf("%w: %s: literal of %d bytes", ErrBadTrace, what, n)
	}
	return d.next(int(n))
}

// decode decodes the next record into e, or returns io.EOF at end of
// stream. It sets every field of e.
func (d *decoder) decode(e *Entry) error {
	if d.pos == d.end && !d.more(1) && d.err == io.EOF {
		return io.EOF
	}
	ud, err := d.uvarint("timestamp")
	if err != nil {
		return err
	}
	delta := int64(ud >> 1) // zig-zag, as binary.AppendVarint writes it
	if ud&1 != 0 {
		delta = ^delta
	}
	d.last += delta
	e.Timestamp = time.Unix(0, d.last).UTC()

	ref, err := d.uvarint("monitor")
	if err != nil {
		return err
	}
	if ref != 0 {
		if e.Monitor, err = d.mons.get(ref); err != nil {
			return err
		}
	} else {
		b, err := d.literal("monitor")
		if err != nil {
			return err
		}
		e.Monitor = string(b)
		d.mons.add(e.Monitor)
	}

	if ref, err = d.uvarint("peer"); err != nil {
		return err
	}
	if ref != 0 {
		p, err := d.peers.get(ref)
		if err != nil {
			return err
		}
		e.NodeID, e.Addr = p.id, p.addr
	} else {
		b, err := d.next(len(e.NodeID))
		if err != nil {
			return err
		}
		copy(e.NodeID[:], b)
		if b, err = d.literal("address"); err != nil {
			return err
		}
		e.Addr = string(b)
		d.peers.add(peer{e.NodeID, e.Addr})
	}

	b, err := d.next(2)
	if err != nil {
		return err
	}
	e.Type, e.Flags = wire.EntryType(b[0]), Flag(b[1])

	if ref, err = d.uvarint("cid"); err != nil {
		return err
	}
	if ref != 0 {
		if e.CID, err = d.cids.get(ref); err != nil {
			return err
		}
	} else {
		if b, err = d.literal("cid"); err != nil {
			return err
		}
		if e.CID, err = cid.Decode(b); err != nil {
			return fmt.Errorf("%w: cid: %v", ErrBadTrace, err)
		}
		d.cids.add(e.CID)
	}
	return nil
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
