package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"bitswapmon/internal/trace"
)

// Maintenance turns a SegmentStore from a bounded-run recorder into a
// store that can run indefinitely: compaction merges the small segments a
// fine rotation window produces into larger generation-2 segments (so the
// file count — and reopen cost — stays proportional to retained data, not
// to uptime), and retention deletes raw segments older than a policy
// horizon measured against the newest recorded timestamp (virtual-time
// native: a simulated week expires a simulated retention window). A
// Maintainer runs both on a wall-clock loop beside a live writer.

// compactSuffix names the temporary file a compaction writes before
// renaming it over its first input.
const compactSuffix = ".compact"

// compactedGen is the Footer.Gen of merged segments. Generation-2 segments
// are never re-compacted: each entry is rewritten at most once.
const compactedGen = 2

// CompactTargetEntries caps a merged segment's size: a run stops growing
// before it would exceed this.
const CompactTargetEntries = 1 << 20

// CompactionPolicy selects which runs of sealed segments merge.
type CompactionPolicy struct {
	// MinRun is the minimum number of adjacent compactable segments worth
	// merging. Default 4, floor 2.
	MinRun int
	// SmallEntries marks a segment compactable when it holds fewer entries
	// than this. Default 1<<18.
	SmallEntries int
}

func (p CompactionPolicy) withDefaults() CompactionPolicy {
	if p.MinRun <= 0 {
		p.MinRun = 4
	}
	if p.MinRun < 2 {
		p.MinRun = 2
	}
	if p.SmallEntries <= 0 {
		p.SmallEntries = 1 << 18
	}
	return p
}

// RetentionPolicy bounds how much raw segment data the store keeps.
type RetentionPolicy struct {
	// MaxAge expires sealed segments whose entire time range is strictly
	// older than (newest recorded timestamp - MaxAge). Zero or negative
	// disables retention.
	MaxAge time.Duration
}

// MaintainStats summarises one maintenance pass.
type MaintainStats struct {
	// Compactions is the number of merged segments produced.
	Compactions int
	// CompactedSegments is the number of input segments absorbed.
	CompactedSegments int
	// Expired is the number of segments deleted by retention.
	Expired int
}

// Add returns the element-wise sum of two stats.
func (st MaintainStats) Add(o MaintainStats) MaintainStats {
	st.Compactions += o.Compactions
	st.CompactedSegments += o.CompactedSegments
	st.Expired += o.Expired
	return st
}

// Compact merges runs of small adjacent sealed segments into generation-2
// segments. The merged file takes over the run's first path and sequence
// number, and entries are concatenated in the store's query order, so Query
// and StreamUnifier output over the compacted store is identical to the
// uncompacted store. Safe to call while a single writer appends: only sealed
// segments older than the newest sealed segment are touched. Returns the
// number of merged segments produced and the number of inputs absorbed.
func (s *SegmentStore) Compact(p CompactionPolicy) (runs, absorbed int, err error) {
	return s.compact(p, CompactTargetEntries)
}

// compact is Compact with an explicit merged-segment cap; tests shrink it.
func (s *SegmentStore) compact(p CompactionPolicy, targetEntries int) (runs, absorbed int, err error) {
	p = p.withDefaults()
	s.mu.Lock()
	snapshot := make([]SegmentInfo, len(s.sealed))
	copy(snapshot, s.sealed)
	s.mu.Unlock()

	// The newest sealed segment is exempt: it is the seam the writer is
	// appending behind, and leaving it alone keeps retention's "never the
	// newest" invariant trivially composable with compaction.
	if len(snapshot) > 0 {
		snapshot = snapshot[:len(snapshot)-1]
	}

	var run []SegmentInfo
	runEntries := 0
	var codec compactCodec
	flush := func() error {
		defer func() { run, runEntries = run[:0], 0 }()
		if len(run) < p.MinRun {
			return nil
		}
		if err := s.compactRun(run, &codec); err != nil {
			return err
		}
		runs++
		absorbed += len(run)
		if s.m != nil {
			s.m.compactions.Inc()
			s.m.compacted.Add(uint64(len(run)))
		}
		return nil
	}
	for _, seg := range snapshot {
		joinable := seg.Footer.Gen < compactedGen && seg.Footer.Entries < p.SmallEntries
		if !joinable || runEntries+seg.Footer.Entries > targetEntries {
			if err := flush(); err != nil {
				return runs, absorbed, err
			}
		}
		if joinable {
			run = append(run, seg)
			runEntries += seg.Footer.Entries
		}
	}
	if err := flush(); err != nil {
		return runs, absorbed, err
	}
	return runs, absorbed, nil
}

// compactCodec is the one Writer and one Reader a compaction pass moves every
// segment through, made on first use.
type compactCodec struct {
	w *trace.Writer
	r *trace.Reader
}

// compactRun rewrites one run of sealed segments into a single segment.
// The merged stream is written to a temporary file, fsynced, renamed over
// the first input (atomic), and only then are the remaining inputs deleted.
// A crash at any point is recovered at the next OpenSegmentStore: a stale
// temporary is discarded, and leftover inputs covered by the merged
// footer's [Seq, SeqMax] interval are deleted.
func (s *SegmentStore) compactRun(run []SegmentInfo, c *compactCodec) error {
	dstPath := run[0].Path
	tmp := dstPath + compactSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ingest: create compaction temp: %w", err)
	}
	defer func() {
		if f != nil {
			if c.w != nil {
				c.w.Close() // waits for the chunk it is deflating into f
			}
			f.Close()
			os.Remove(tmp)
		}
	}()
	if c.w, err = openWriter(c.w, f); err != nil {
		return err
	}
	merged := newFooter()
	for _, seg := range run {
		if err := c.copySegmentPayload(seg.Path); err != nil {
			return err
		}
		merged.merge(seg.Footer)
	}
	merged.Gen = compactedGen
	merged.SeqMax = run[len(run)-1].Seq
	if err := c.w.Close(); err != nil {
		return fmt.Errorf("ingest: finalize compacted stream: %w", err)
	}
	if err := writeFooter(f, *merged); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("ingest: sync compacted segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ingest: close compacted segment: %w", err)
	}
	f = nil
	if err := os.Rename(tmp, dstPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ingest: swap compacted segment: %w", err)
	}
	for _, seg := range run[1:] {
		os.Remove(seg.Path)
	}

	// Splice the run out of the live index and insert the merged segment in
	// its place. The merged footer's First equals the run's first segment's
	// First and it keeps that segment's sequence number, so sort order — and
	// therefore query order — is unchanged.
	s.mu.Lock()
	inRun := make(map[int]bool, len(run))
	for _, seg := range run {
		inRun[seg.Seq] = true
	}
	kept := s.sealed[:0]
	for _, seg := range s.sealed {
		if !inRun[seg.Seq] {
			kept = append(kept, seg)
		}
	}
	s.sealed = append(kept, SegmentInfo{Path: dstPath, Seq: run[0].Seq, Footer: *merged})
	sortSegments(s.sealed)
	s.mu.Unlock()
	return nil
}

// copySegmentPayload streams one segment's entries into c.w.
func (c *compactCodec) copySegmentPayload(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if c.r, err = openReader(c.r, f); err != nil {
		return fmt.Errorf("ingest: open segment %s for compaction: %w", path, err)
	}
	defer c.r.Close() // before f.Close: the Reader's goroutine reads f
	for {
		e, err := c.r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("ingest: read %s during compaction: %w", path, err)
		}
		if err := c.w.Write(e); err != nil {
			return err
		}
	}
}

// Retain deletes sealed segments whose entire time range is strictly older
// than the policy horizon: the newest timestamp recorded anywhere in the
// store minus MaxAge. The active segment is never touched (it is not
// sealed), and the newest sealed segment is never deleted — it anchors the
// horizon and keeps the store's time range non-empty. Returns the number of
// segments deleted.
func (s *SegmentStore) Retain(p RetentionPolicy) (int, error) {
	if p.MaxAge <= 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sealed) <= 1 {
		return 0, nil
	}
	var newest time.Time
	for _, seg := range s.sealed {
		if seg.Footer.Last.After(newest) {
			newest = seg.Footer.Last
		}
	}
	horizon := newest.Add(-p.MaxAge)
	kept := s.sealed[:0]
	deleted := 0
	for i, seg := range s.sealed {
		if i < len(s.sealed)-1 && seg.Footer.Last.Before(horizon) {
			if err := os.Remove(seg.Path); err != nil && !errors.Is(err, os.ErrNotExist) {
				// Keep the segment indexed; a later pass retries.
				kept = append(kept, seg)
				continue
			}
			deleted++
			continue
		}
		kept = append(kept, seg)
	}
	s.sealed = kept
	if s.m != nil && deleted > 0 {
		s.m.expired.Add(uint64(deleted))
	}
	return deleted, nil
}

// MaintainOptions configures one maintenance pass (and a Maintainer's
// recurring passes).
type MaintainOptions struct {
	// Interval is the Maintainer's wall-clock pass period. Default 30s.
	Interval time.Duration
	// Compaction merges small sealed segments; the zero value uses the
	// defaults.
	Compaction CompactionPolicy
	// Retention deletes expired segments; the zero value (MaxAge 0)
	// disables retention.
	Retention RetentionPolicy
}

// Maintain runs one maintenance pass: compaction, then retention. It is what
// a Maintainer runs on its loop; call it directly for a final pass at
// shutdown.
func (s *SegmentStore) Maintain(opts MaintainOptions) (MaintainStats, error) {
	runs, absorbed, err := s.Compact(opts.Compaction)
	st := MaintainStats{Compactions: runs, CompactedSegments: absorbed}
	if err != nil {
		return st, err
	}
	st.Expired, err = s.Retain(opts.Retention)
	return st, err
}

// Maintainer runs recurring maintenance passes on one store from a
// background goroutine, beside (at most) one concurrent writer. Run at most
// one Maintainer per store, and do not run queries concurrently with an
// active Maintainer — maintenance may delete or rewrite sealed files a lazy
// query iterator has not opened yet.
type Maintainer struct {
	store *SegmentStore
	opts  MaintainOptions

	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	stats MaintainStats
	err   error // first pass error, latched
}

// NewMaintainer starts maintenance on store with the given options.
func NewMaintainer(store *SegmentStore, opts MaintainOptions) *Maintainer {
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	m := &Maintainer{store: store, opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	go m.loop()
	return m
}

func (m *Maintainer) loop() {
	defer close(m.done)
	t := time.NewTicker(m.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.pass()
		}
	}
}

func (m *Maintainer) pass() {
	st, err := m.store.Maintain(m.opts)
	m.mu.Lock()
	m.stats = m.stats.Add(st)
	if err != nil && m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
}

// Stats returns the accumulated maintenance totals.
func (m *Maintainer) Stats() MaintainStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Err reports the first maintenance-pass error, if any.
func (m *Maintainer) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close stops the loop and runs one final pass — the shutdown sequence is
// seal the store, then Close the Maintainer, so the last segments get
// compacted. Returns the first error any pass hit.
func (m *Maintainer) Close() error {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
	m.pass()
	return m.Err()
}
