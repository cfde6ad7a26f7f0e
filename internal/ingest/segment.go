package ingest

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// Segment files are the on-disk unit of a SegmentStore: a regular binary
// trace stream (BSTRACE2, see internal/trace/io.go) followed by a footer that
// summarises the segment without decompressing it:
//
//	[gzip trace stream][footer JSON][uint64 LE footer length]["BSSEGFT1"]
//
// The stream's dictionaries start empty in every segment, so a segment
// decodes on its own and a query may skip any of them. The footer is read by
// seeking to the end of the file, so opening a store over months of segments
// touches only metadata. The payload remains readable by a plain
// trace.Reader (which stops at the end of the gzip stream and ignores the
// trailing footer).
var segmentFooterMagic = []byte("BSSEGFT1")

const segmentSuffix = ".seg"

// Footer summarises one sealed segment.
type Footer struct {
	// Entries is the number of records in the segment.
	Entries int `json:"entries"`
	// First and Last bound the segment's timestamps (inclusive).
	First time.Time `json:"first"`
	Last  time.Time `json:"last"`
	// PerType counts entries by want-list entry type, keyed by the wire
	// spelling (WANT_HAVE, WANT_BLOCK, CANCEL).
	PerType map[string]int `json:"per_type"`
	// PerMonitor counts entries by recording monitor.
	PerMonitor map[string]int `json:"per_monitor"`
	// Gen is the compaction generation: 0 for segments written directly by
	// the store, 2 for segments produced by merging a run of small sealed
	// segments. Absent (zero) in pre-compaction footers.
	Gen int `json:"gen,omitempty"`
	// SeqMax is the highest input sequence number a compacted segment
	// absorbed (the segment file itself keeps the lowest input's name and
	// sequence). Zero for uncompacted segments. OpenSegmentStore uses the
	// [Seq, SeqMax] interval to finish a compaction that crashed between
	// renaming the merged file into place and deleting its inputs.
	SeqMax int `json:"seq_max,omitempty"`
}

func newFooter() *Footer {
	return &Footer{PerType: make(map[string]int), PerMonitor: make(map[string]int)}
}

// activeFooter gathers the footer of the segment being written. Entries,
// First and Last are kept current in Footer (rotation reads them); the
// per-type and per-monitor counts stay out of the string-keyed maps until
// seal.
type activeFooter struct {
	Footer
	perType [256]int // indexed by the entry type byte
	// Consecutive entries mostly come from one monitor: monN counts the
	// current run of mon, folded into PerMonitor when the monitor changes.
	mon  string
	monN int
}

func (a *activeFooter) observe(e trace.Entry) {
	if a.Entries == 0 || e.Timestamp.Before(a.First) {
		a.First = e.Timestamp
	}
	if a.Entries == 0 || e.Timestamp.After(a.Last) {
		a.Last = e.Timestamp
	}
	a.Entries++
	a.perType[e.Type]++
	if e.Monitor != a.mon {
		a.foldMonitor()
		a.mon = e.Monitor
	}
	a.monN++
}

func (a *activeFooter) foldMonitor() {
	if a.monN > 0 {
		a.PerMonitor[a.mon] += a.monN
		a.monN = 0
	}
}

// seal returns the finished footer.
func (a *activeFooter) seal() Footer {
	a.foldMonitor()
	for t, n := range a.perType {
		if n > 0 {
			a.PerType[wire.EntryType(t).String()] = n
		}
	}
	return a.Footer
}

// merge adds o's counts into f.
func (f *Footer) merge(o Footer) {
	if o.Entries == 0 {
		return
	}
	if f.Entries == 0 || o.First.Before(f.First) {
		f.First = o.First
	}
	if f.Entries == 0 || o.Last.After(f.Last) {
		f.Last = o.Last
	}
	f.Entries += o.Entries
	for k, v := range o.PerType {
		f.PerType[k] += v
	}
	for k, v := range o.PerMonitor {
		f.PerMonitor[k] += v
	}
}

// overlaps reports whether the segment's time range intersects [from, to];
// zero bounds are open.
func (f *Footer) overlaps(from, to time.Time) bool {
	if !from.IsZero() && f.Last.Before(from) {
		return false
	}
	if !to.IsZero() && f.First.After(to) {
		return false
	}
	return true
}

// SegmentInfo describes one sealed segment on disk.
type SegmentInfo struct {
	// Path is the segment file's location.
	Path string
	// Seq is the store-assigned sequence number (monotonic append order).
	Seq int
	// Footer is the segment's metadata summary.
	Footer Footer
}

// SegmentMaxEntries bounds the records per segment regardless of time span.
const SegmentMaxEntries = 1 << 20

// SegmentOptions tunes a SegmentStore.
type SegmentOptions struct {
	// Rotation bounds the time span covered by one segment: a segment is
	// sealed when an entry arrives Rotation or more after the segment's
	// first entry. Default 1h.
	Rotation time.Duration
}

func (o SegmentOptions) withDefaults() SegmentOptions {
	if o.Rotation <= 0 {
		o.Rotation = time.Hour
	}
	return o
}

// SegmentStore is a time-partitioned on-disk trace store. Writes stream into
// an active segment file (so resident memory is one compression buffer, not
// the trace); sealed segments carry footers so queries can skip segments by
// time range without decompressing them. SegmentStore satisfies Sink.
//
// Write and Query remain single-caller (the simulation's event loop), but
// the sealed-segment index is mutex-guarded so one Maintainer may compact
// and expire sealed segments concurrently with the writer — the service-mode
// arrangement. Queries must not run concurrently with maintenance: a
// maintenance pass may delete or rewrite a sealed file a lazy iterator has
// not opened yet.
//
// Each codec runs one goroutine beside its owner (trace.Writer deflates one
// chunk behind the writer, trace.Reader decodes batches ahead of the
// reader), and that goroutine uses the open segment file. So every file is
// closed only after its codec: seal closes the Writer before the file, and
// a QueryIter or compaction closes the Reader before the file.
type SegmentStore struct {
	dir  string
	opts SegmentOptions
	// maxEntries is SegmentMaxEntries; tests shrink it to force rotation.
	maxEntries int

	// mu guards sealed and skipped: the only store state shared between the
	// writer (seal) and a background Maintainer (compaction, retention).
	mu     sync.Mutex
	sealed []SegmentInfo
	// skipped lists files that looked like segments but had no valid
	// footer (e.g. after a crash) and were ignored when opening.
	skipped []string

	seq int
	// f is the active segment's file, nil between segments; w is the one
	// codec every segment of this store is written through.
	f          *os.File
	w          *trace.Writer
	active     *activeFooter
	activePath string

	// m is the telemetry handle resolved at open; nil (metrics never
	// enabled) keeps the write path at a single branch.
	m *ingestMetrics
}

// OpenSegmentStore opens (creating if necessary) a segment store rooted at
// dir. Existing sealed segments are indexed by reading each one's footer, the
// only record of its contents, so opening a store over months of segments
// does not decompress any data; files that are not segments are ignored.
// Opening also finishes interrupted maintenance: stale compaction
// temporaries are removed, and leftover inputs of a compaction that crashed
// after renaming the merged segment into place are deleted (their entries
// live on inside the merged segment).
func OpenSegmentStore(dir string, opts SegmentOptions) (*SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: create store dir: %w", err)
	}
	s := &SegmentStore{dir: dir, opts: opts.withDefaults(), maxEntries: SegmentMaxEntries, m: ingMetrics.Load()}
	if tmps, err := filepath.Glob(filepath.Join(dir, "*"+compactSuffix)); err == nil {
		for _, tmp := range tmps {
			// A temporary never renamed into place: the compaction it
			// belonged to never happened, so the inputs are all still live.
			os.Remove(tmp)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, path := range names {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(path), "%d"+segmentSuffix, &seq); err != nil {
			s.skipped = append(s.skipped, path)
			continue
		}
		if seq >= s.seq {
			// Reserve the sequence number even if the segment turns out
			// to be unsealed, so new segments never overwrite it.
			s.seq = seq + 1
		}
		ft, err := ReadFooter(path)
		if err != nil {
			s.skipped = append(s.skipped, path)
			continue
		}
		s.sealed = append(s.sealed, SegmentInfo{Path: path, Seq: seq, Footer: ft})
	}
	s.recoverCompactions()
	sortSegments(s.sealed)
	return s, nil
}

// recoverCompactions finishes compactions that crashed between the rename
// and deleting the merged inputs: any uncompacted segment whose sequence
// number falls inside another segment's absorbed [Seq, SeqMax] interval is a
// leftover input whose entries already live in the merged segment, so it is
// deleted rather than indexed (keeping it would replay its entries twice).
func (s *SegmentStore) recoverCompactions() {
	type span struct{ lo, hi int }
	var covered []span
	for _, seg := range s.sealed {
		if seg.Footer.Gen >= compactedGen && seg.Footer.SeqMax > seg.Seq {
			covered = append(covered, span{lo: seg.Seq, hi: seg.Footer.SeqMax})
		}
	}
	if len(covered) == 0 {
		return
	}
	kept := s.sealed[:0]
	for _, seg := range s.sealed {
		leftover := false
		if seg.Footer.Gen < compactedGen {
			for _, sp := range covered {
				if seg.Seq > sp.lo && seg.Seq <= sp.hi {
					leftover = true
					break
				}
			}
		}
		if leftover {
			os.Remove(seg.Path)
			continue
		}
		kept = append(kept, seg)
	}
	s.sealed = kept
}

func sortSegments(segs []SegmentInfo) {
	sort.Slice(segs, func(i, j int) bool {
		a, b := segs[i], segs[j]
		if !a.Footer.First.Equal(b.Footer.First) {
			return a.Footer.First.Before(b.Footer.First)
		}
		return a.Seq < b.Seq
	})
}

// Write appends one entry, sealing and rotating the active segment when the
// configured time span or entry cap is exceeded. Entries are expected in
// roughly nondecreasing timestamp order (a monitor's natural output); an
// out-of-order entry is stored in whatever segment is active.
func (s *SegmentStore) Write(e trace.Entry) error {
	if s.f != nil && s.shouldRotate(e) {
		if err := s.seal(); err != nil {
			return err
		}
	}
	if s.f == nil {
		if err := s.openSegment(); err != nil {
			return err
		}
	}
	if err := s.w.Write(e); err != nil {
		return fmt.Errorf("ingest: write segment record: %w", err)
	}
	s.active.observe(e)
	if s.m != nil {
		s.m.entries.Inc()
	}
	return nil
}

func (s *SegmentStore) shouldRotate(e trace.Entry) bool {
	if s.active.Entries >= s.maxEntries {
		return true
	}
	return s.active.Entries > 0 && e.Timestamp.Sub(s.active.First) >= s.opts.Rotation
}

func (s *SegmentStore) openSegment() error {
	path := filepath.Join(s.dir, fmt.Sprintf("%06d%s", s.seq, segmentSuffix))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ingest: create segment: %w", err)
	}
	if s.w, err = openWriter(s.w, f); err != nil {
		f.Close()
		return err
	}
	s.f, s.active, s.activePath = f, &activeFooter{Footer: *newFooter()}, path
	s.seq++
	return nil
}

// seal finalises the active segment: closes the trace stream, appends the
// footer, and indexes the segment. On failure the active segment is
// abandoned (its file stays on disk, unsealed, like a crash leftover) so
// the store remains usable for queries over the already-sealed segments
// and a later Write starts a fresh segment.
func (s *SegmentStore) seal() error {
	if s.f == nil {
		return nil
	}
	var sealStart time.Time
	if s.m != nil {
		sealStart = time.Now()
	}
	f, footer, path := s.f, s.active.seal(), s.activePath
	s.f, s.active, s.activePath = nil, nil, ""
	if err := s.w.Close(); err != nil {
		f.Close()
		s.markSkipped(path)
		return fmt.Errorf("ingest: finalize segment stream: %w", err)
	}
	if err := writeFooter(f, footer); err != nil {
		f.Close()
		s.markSkipped(path)
		return err
	}
	var segBytes int64
	if s.m != nil {
		if st, err := f.Stat(); err == nil {
			segBytes = st.Size()
		}
	}
	if err := f.Close(); err != nil {
		s.markSkipped(path)
		return fmt.Errorf("ingest: close segment: %w", err)
	}
	if s.m != nil {
		s.m.sealed.Inc()
		s.m.bytes.Add(uint64(segBytes))
		s.m.flushLatency.ObserveDuration(time.Since(sealStart))
	}
	info := SegmentInfo{Path: path, Seq: s.seq - 1, Footer: footer}
	if info.Footer.Entries == 0 {
		// An empty segment (sealed before any write) carries no data;
		// drop the file rather than index a zero-range segment.
		return os.Remove(info.Path)
	}
	s.mu.Lock()
	s.sealed = append(s.sealed, info)
	sortSegments(s.sealed)
	s.mu.Unlock()
	return nil
}

func (s *SegmentStore) markSkipped(path string) {
	s.mu.Lock()
	s.skipped = append(s.skipped, path)
	s.mu.Unlock()
}

func writeFooter(w io.Writer, ft Footer) error {
	blob, err := json.Marshal(ft)
	if err != nil {
		return fmt.Errorf("ingest: encode footer: %w", err)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], uint64(len(blob)))
	for _, b := range [][]byte{blob, tail[:], segmentFooterMagic} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("ingest: write footer: %w", err)
		}
	}
	return nil
}

// ReadFooter reads a sealed segment's footer without decompressing its
// payload.
func ReadFooter(path string) (Footer, error) {
	var ft Footer
	f, err := os.Open(path)
	if err != nil {
		return ft, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return ft, err
	}
	tailLen := int64(8 + len(segmentFooterMagic))
	if st.Size() < tailLen {
		return ft, fmt.Errorf("ingest: %s: too short for a segment footer", path)
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, st.Size()-tailLen); err != nil {
		return ft, err
	}
	if string(tail[8:]) != string(segmentFooterMagic) {
		return ft, fmt.Errorf("ingest: %s: missing segment footer magic", path)
	}
	n := int64(binary.LittleEndian.Uint64(tail[:8]))
	if n <= 0 || n > st.Size()-tailLen {
		return ft, fmt.Errorf("ingest: %s: bad footer length %d", path, n)
	}
	blob := make([]byte, n)
	if _, err := f.ReadAt(blob, st.Size()-tailLen-n); err != nil {
		return ft, err
	}
	if err := json.Unmarshal(blob, &ft); err != nil {
		return ft, fmt.Errorf("ingest: %s: decode footer: %w", path, err)
	}
	return ft, nil
}

// Close seals the active segment. The store remains usable for queries, and
// a subsequent Write starts a new segment.
func (s *SegmentStore) Close() error { return s.seal() }

// Segments returns the sealed segments in time order.
func (s *SegmentStore) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, len(s.sealed))
	copy(out, s.sealed)
	return out
}

// Skipped returns files in the store directory that were ignored for lack
// of a valid footer (e.g. a segment left unsealed by a crash).
func (s *SegmentStore) Skipped() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.skipped))
	copy(out, s.skipped)
	return out
}

// Totals aggregates all sealed footers (entry counts, time range, per-type
// and per-monitor counts) without reading any entry data.
func (s *SegmentStore) Totals() Footer {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := newFooter()
	for _, seg := range s.sealed {
		t.merge(seg.Footer)
	}
	return *t
}

// Query returns an iterator over entries with timestamps in [from, to]
// (zero bounds are open) that satisfy keep (nil keeps everything). The
// active segment is sealed first so results are complete. Segments are read
// one at a time — resident memory is bounded by one decompression buffer —
// and skipped entirely when their footer's time range does not overlap the
// query. Entries are yielded in per-segment append order, i.e. in
// nondecreasing timestamp order when writes were time-ordered, so the
// iterator can feed a StreamUnifier directly.
func (s *SegmentStore) Query(from, to time.Time, keep func(trace.Entry) bool) (*QueryIter, error) {
	if err := s.seal(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var segs []SegmentInfo
	for _, seg := range s.sealed {
		if seg.Footer.overlaps(from, to) {
			segs = append(segs, seg)
		}
	}
	return &QueryIter{segs: segs, from: from, to: to, keep: keep}, nil
}

// QueryIter iterates a SegmentStore query one segment at a time. It
// satisfies EntrySource.
type QueryIter struct {
	segs     []SegmentInfo
	from, to time.Time
	keep     func(trace.Entry) bool

	idx int
	// f is the open segment, nil between segments; r is the one codec every
	// segment of this query is read through.
	f *os.File
	r *trace.Reader
}

// Read returns the next matching entry, or io.EOF when the query is
// exhausted.
func (it *QueryIter) Read() (trace.Entry, error) {
	for {
		if it.f == nil {
			if it.idx >= len(it.segs) {
				return trace.Entry{}, io.EOF
			}
			seg := it.segs[it.idx]
			it.idx++
			f, err := os.Open(seg.Path)
			if err != nil {
				return trace.Entry{}, err
			}
			if it.r, err = openReader(it.r, f); err != nil {
				f.Close()
				return trace.Entry{}, fmt.Errorf("ingest: open segment %s: %w", seg.Path, err)
			}
			it.f = f
		}
		e, err := it.r.Read()
		if err == io.EOF {
			it.closeSegment()
			continue
		}
		if err != nil {
			it.closeSegment()
			return e, err
		}
		if !it.from.IsZero() && e.Timestamp.Before(it.from) {
			continue
		}
		if !it.to.IsZero() && e.Timestamp.After(it.to) {
			continue
		}
		if it.keep != nil && !it.keep(e) {
			continue
		}
		return e, nil
	}
}

// closeSegment stops the Reader's decoding goroutine, which reads the open
// segment, and then closes the segment's file.
func (it *QueryIter) closeSegment() {
	if it.f != nil {
		it.r.Close()
		it.f.Close()
		it.f = nil
	}
}

// openWriter points w at the new segment f, or makes the Writer when w is
// nil. Close the Writer before f.
func openWriter(w *trace.Writer, f *os.File) (*trace.Writer, error) {
	if w == nil {
		return trace.NewWriter(f)
	}
	w.Reset(f)
	return w, nil
}

// openReader points r at the segment f, or makes the Reader when r is nil.
// The Reader it returns is fit for the next segment even beside an error;
// close it before f.
func openReader(r *trace.Reader, f *os.File) (*trace.Reader, error) {
	if r == nil {
		return trace.NewReader(f)
	}
	return r, r.Reset(f)
}

// Close releases any open segment file. Read after Close resumes with the
// next segment; call it only when abandoning the iterator early.
func (it *QueryIter) Close() error {
	it.closeSegment()
	return nil
}
