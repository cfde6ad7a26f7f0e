package ingest

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// ErrUnsortedSource is returned when a source yields an entry with a
// timestamp earlier than its predecessor; StreamUnifier requires each
// source to be time-ordered (a monitor's natural output order).
var ErrUnsortedSource = errors.New("ingest: source entries out of timestamp order")

// dupKey identifies "the same logical request" across observations,
// mirroring trace.Unify's key.
type dupKey struct {
	node simnet.NodeID
	typ  wire.EntryType
	c    cid.CID
}

// never is the last-seen time of a key a monitor has not observed inside
// the window. Entry times are UnixNano, so it compares below every
// "at >= ts-window" test.
const never = math.MinInt64

// unifyRec is one tracked request: its key (kept so expiry can delete it
// from the index) and its newest observation at any monitor.
type unifyRec struct {
	key dupKey
	at  int64 // UnixNano of the newest observation
	mon int32 // monitor number of the newest observation
}

// expiry is one queued observation: record slot and observation time.
type expiry struct {
	at  int64
	rec int32
}

// unifyState is the Sec. IV-B classification state shared by the pull-mode
// StreamUnifier and the push-mode UnifySink. One map from request key to a
// slot of the recs slab is the only hashed structure, probed once per
// entry: the slot holds the newest observation (cross-monitor duplicate
// check) and, in seen, one last-seen time per monitor (rebroadcast check).
// Monitors are numbered in order of appearance; seen is one flat slice of
// stride len(monitors) per slot, re-strided when a new monitor shows up.
//
// Every observation that moves a record's newest time is queued, and
// expire pops the queue by slot index, never by key: a record leaves (key
// deleted from the index and zeroed in the slab, slot pushed on the free
// list) when the popped observation is still its newest and has fallen more
// than RebroadcastWindow behind the watermark. State is therefore bounded
// by the distinct requests inside one rebroadcast window: the slab keeps its
// peak capacity, but no key or CID string outlives the window. The unifier
// keys its records by value, not by trace.Symbols ids: a Symbols retires ids
// by the epochs its owner sets (a WindowedDriver's panes), while a record
// here expires on its own, 31 s after its newest observation.
type unifyState struct {
	index    map[dupKey]int32
	recs     []unifyRec
	seen     []int64 // len(recs) * len(monitors)
	free     []int32
	monitors []string

	q  []expiry
	qh int

	// m is the telemetry handle resolved at construction; nil (metrics
	// never enabled) keeps flagging at a single branch.
	m *ingestMetrics
}

func newUnifyState() *unifyState {
	return &unifyState{index: make(map[dupKey]int32), m: ingMetrics.Load()}
}

// expire advances the watermark: nothing older than it can arrive anymore.
// Flag checks use >= ts-window comparisons, so nothing inside the window is
// ever evicted.
func (s *unifyState) expire(watermark int64) {
	limit := watermark - int64(trace.RebroadcastWindow)
	evicted := 0
	for s.qh < len(s.q) && s.q[s.qh].at < limit {
		x := s.q[s.qh]
		s.qh++
		// Only evict if the queued observation is still the record's
		// newest; a fresher one has its own queue entry. The entry that
		// frees a slot is the last one queued for it (flag queues one per
		// distinct time), so no entry ever names a freed or reused slot.
		if r := &s.recs[x.rec]; r.at == x.at {
			delete(s.index, r.key)
			r.key = dupKey{}
			s.free = append(s.free, x.rec)
			evicted++
		}
	}
	if s.qh > 0 && s.qh*2 >= len(s.q) {
		s.q = append(s.q[:0], s.q[s.qh:]...)
		s.qh = 0
	}
	if s.m != nil && evicted > 0 {
		s.m.evictions.Add(uint64(evicted))
	}
}

// monitor returns the number of the named monitor, assigning the next one
// (and widening every slot's seen row) on first sight. A linear scan: a
// deployment has a handful of monitors and the names are usually the very
// same string, so this beats hashing the name per entry.
func (s *unifyState) monitor(name string) int {
	for i, m := range s.monitors {
		if m == name {
			return i
		}
	}
	old := len(s.monitors)
	s.monitors = append(s.monitors, name)
	seen := make([]int64, len(s.recs)*(old+1))
	for i := range s.recs {
		row := seen[i*(old+1) : (i+1)*(old+1)]
		copy(row, s.seen[i*old:(i+1)*old])
		row[old] = never
	}
	s.seen = seen
	return old
}

// slot returns the record slot tracking key, taking a free or fresh one
// (no observation yet at any monitor) for a key not in the index.
func (s *unifyState) slot(key dupKey) int32 {
	if i, ok := s.index[key]; ok {
		return i
	}
	stride := len(s.monitors)
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.recs))
		s.recs = append(s.recs, unifyRec{})
		s.seen = append(s.seen, make([]int64, stride)...)
	}
	s.recs[i] = unifyRec{key: key, at: never, mon: -1}
	row := s.seen[int(i)*stride : (int(i)+1)*stride]
	for j := range row {
		row[j] = never
	}
	s.index[key] = i
	return i
}

// flag applies Sec. IV-B classification to one entry, in unified order.
func (s *unifyState) flag(e *trace.Entry) {
	ts := e.Timestamp.UnixNano()
	mon := s.monitor(e.Monitor)
	i := s.slot(dupKey{node: e.NodeID, typ: e.Type, c: e.CID})
	r := &s.recs[i]

	seen := &s.seen[int(i)*len(s.monitors)+mon]
	if *seen >= ts-int64(trace.RebroadcastWindow) {
		e.Flags |= trace.FlagRebroadcast
		if s.m != nil {
			s.m.rebroadcast.Inc()
		}
	}
	*seen = ts

	if r.mon != int32(mon) && r.at >= ts-int64(trace.InterMonitorWindow) {
		e.Flags |= trace.FlagInterMonitorDup
		if s.m != nil {
			s.m.interMonitor.Inc()
		}
	}
	// One queue entry per distinct observation time of a record: a second
	// one for the same time would free the slot twice.
	if r.at != ts {
		s.q = append(s.q, expiry{at: ts, rec: i})
	}
	r.at, r.mon = ts, int32(mon)
}

// sortBatch orders one timestamp's entries by trace.Sort's tie-breaks
// (stable, so source/arrival order breaks exact ties).
func sortBatch(batch []trace.Entry) {
	slices.SortStableFunc(batch, func(a, b trace.Entry) int {
		if a.Monitor != b.Monitor {
			return strings.Compare(a.Monitor, b.Monitor)
		}
		if a.NodeID != b.NodeID {
			if a.NodeID.Less(b.NodeID) {
				return -1
			}
			return 1
		}
		return strings.Compare(a.CID.Key(), b.CID.Key())
	})
}

// StreamUnifier merges several time-ordered monitor streams into the
// paper's unified trace (Sec. IV-B) online: same-monitor repetitions within
// trace.RebroadcastWindow are flagged FlagRebroadcast and requests seen at
// a different monitor within trace.InterMonitorWindow are flagged
// FlagInterMonitorDup — exactly as the batch trace.Unify does, but with
// memory bounded by the sliding windows instead of the whole trace: one
// record per distinct (peer, type, CID) request observed during the last
// trace.RebroadcastWindow (a map slot, a slab slot with the request's newest
// observation and one last-seen time per monitor, and a 16-byte expiry-queue
// entry per observation still inside the window), each found with a single
// map probe per entry. Timestamps must be representable as UnixNano.
//
// Output order and flags are identical to trace.Unify over the same inputs
// (given each source is time-ordered): entries sharing a timestamp are
// buffered until every source has advanced past it, then ordered by
// trace.Sort's tie-breaks before flagging.
//
// StreamUnifier satisfies EntrySource, so unified output can be copied
// straight into a Sink or another pipeline stage.
type StreamUnifier struct {
	srcs    []EntrySource
	heads   []trace.Entry // by value: one lookahead slot per source, no per-entry alloc
	hasHead []bool
	lastTS  []time.Time
	done    []bool

	batch    []trace.Entry
	batchPos int

	state     *unifyState
	mergeOnly bool

	err error
}

// NewStreamUnifier merges the given sources. Source order matters only for
// breaking exact ties (same timestamp, monitor, node and CID), where
// earlier sources win — matching the argument order of trace.Unify.
func NewStreamUnifier(sources ...EntrySource) *StreamUnifier {
	return &StreamUnifier{
		srcs:    sources,
		heads:   make([]trace.Entry, len(sources)),
		hasHead: make([]bool, len(sources)),
		lastTS:  make([]time.Time, len(sources)),
		done:    make([]bool, len(sources)),
		state:   newUnifyState(),
	}
}

// MergeOnly disables Sec. IV-B flagging: output carries each entry's stored
// flags untouched and no sliding-window state is kept or advanced. With
// multiple sources the merge order is identical to the flagging mode; a
// single source passes through in its own (recorded) order, skipping the
// lookahead batching entirely. Use it for consumers that re-issue every
// entry regardless of flags (direct replay), where computing
// rebroadcast/duplicate classifications is pure overhead.
func (u *StreamUnifier) MergeOnly() *StreamUnifier {
	u.mergeOnly = true
	return u
}

// Read returns the next unified entry, or io.EOF when all sources are
// exhausted.
func (u *StreamUnifier) Read() (trace.Entry, error) {
	if u.err != nil {
		return trace.Entry{}, u.err
	}
	// A single merge-only source needs no lookahead or batching: its own
	// order is the output order, so entries pass straight through (keeping
	// the monotonicity check).
	if u.mergeOnly && len(u.srcs) == 1 {
		e, err := u.srcs[0].Read()
		if err != nil {
			u.err = err
			return trace.Entry{}, err
		}
		if e.Timestamp.Before(u.lastTS[0]) {
			u.err = fmt.Errorf("%w: source 0: %s after %s",
				ErrUnsortedSource, e.Timestamp.Format(time.RFC3339Nano), u.lastTS[0].Format(time.RFC3339Nano))
			return trace.Entry{}, u.err
		}
		u.lastTS[0] = e.Timestamp
		return e, nil
	}
	for u.batchPos >= len(u.batch) {
		if err := u.refill(); err != nil {
			u.err = err
			return trace.Entry{}, err
		}
	}
	e := u.batch[u.batchPos]
	u.batchPos++
	return e, nil
}

// ensureHead pulls the next entry from source i into the lookahead slot.
func (u *StreamUnifier) ensureHead(i int) error {
	if u.done[i] || u.hasHead[i] {
		return nil
	}
	e, err := u.srcs[i].Read()
	if err == io.EOF {
		u.done[i] = true
		return nil
	}
	if err != nil {
		return err
	}
	if e.Timestamp.Before(u.lastTS[i]) {
		return fmt.Errorf("%w: source %d: %s after %s",
			ErrUnsortedSource, i, e.Timestamp.Format(time.RFC3339Nano), u.lastTS[i].Format(time.RFC3339Nano))
	}
	u.lastTS[i] = e.Timestamp
	u.heads[i] = e
	u.hasHead[i] = true
	return nil
}

// refill gathers the next timestamp's worth of entries from all sources,
// orders them with trace.Sort's tie-breaks, and flags them.
func (u *StreamUnifier) refill() error {
	u.batch = u.batch[:0]
	u.batchPos = 0

	for i := range u.srcs {
		if err := u.ensureHead(i); err != nil {
			return err
		}
	}
	var minTS time.Time
	found := false
	for i := range u.srcs {
		if u.hasHead[i] && (!found || u.heads[i].Timestamp.Before(minTS)) {
			minTS = u.heads[i].Timestamp
			found = true
		}
	}
	if !found {
		return io.EOF
	}

	// Collect every entry carrying minTS, preserving source order and
	// FIFO order within a source (the concatenation order trace.Unify's
	// stable sort starts from).
	for i := range u.srcs {
		for u.hasHead[i] && u.heads[i].Timestamp.Equal(minTS) {
			u.batch = append(u.batch, u.heads[i])
			u.hasHead[i] = false
			if err := u.ensureHead(i); err != nil {
				return err
			}
		}
	}

	// trace.Sort's tie-breaks within one timestamp.
	sortBatch(u.batch)

	if u.mergeOnly {
		return nil
	}

	// Advance the watermark before flagging: nothing older than minTS can
	// arrive anymore, so state outside the windows relative to minTS is
	// dead.
	u.state.expire(minTS.UnixNano())

	for i := range u.batch {
		u.state.flag(&u.batch[i])
	}
	return nil
}

// UnifySink is the push-mode counterpart of StreamUnifier: raw monitor
// observations are written in as they happen (in nondecreasing timestamp
// order across all monitors — the natural order of a simulation's event
// loop, where every monitor shares one clock), and the sink forwards them to
// dst carrying the Sec. IV-B flags. Entries sharing a timestamp are buffered
// until the clock advances, then ordered by trace.Sort's tie-breaks before
// flagging — the same order and flags the batch trace.Unify produces.
//
// Attach one UnifySink as every monitor's sink (directly or inside a Tee)
// to feed live reports without retaining the trace; call Flush after the
// run to deliver the final timestamp's batch.
type UnifySink struct {
	dst   Sink
	state *unifyState

	batch []trace.Entry
	ts    time.Time
	any   bool
	err   error
}

// NewUnifySink returns a sink unifying into dst.
func NewUnifySink(dst Sink) *UnifySink {
	return &UnifySink{dst: dst, state: newUnifyState()}
}

// Write buffers or forwards one raw observation. Entries must arrive in
// nondecreasing timestamp order across all writers. Once the sink has
// failed (unsorted input or a dst error), every further Write returns the
// same error: retrying could re-flag and re-deliver entries already
// forwarded mid-batch.
func (u *UnifySink) Write(e trace.Entry) error {
	if u.err != nil {
		return u.err
	}
	if u.any && e.Timestamp.Before(u.ts) {
		u.err = fmt.Errorf("%w: %s after %s", ErrUnsortedSource,
			e.Timestamp.Format(time.RFC3339Nano), u.ts.Format(time.RFC3339Nano))
		return u.err
	}
	if u.any && e.Timestamp.After(u.ts) {
		if err := u.flush(); err != nil {
			return err
		}
	}
	u.ts = e.Timestamp
	u.any = true
	u.batch = append(u.batch, e)
	return nil
}

// flush flags and forwards the pending timestamp batch, latching any dst
// error.
func (u *UnifySink) flush() error {
	if len(u.batch) == 0 {
		return nil
	}
	sortBatch(u.batch)
	u.state.expire(u.ts.UnixNano())
	for i := range u.batch {
		u.state.flag(&u.batch[i])
		if err := u.dst.Write(u.batch[i]); err != nil {
			u.err = err
			return err
		}
	}
	u.batch = u.batch[:0]
	return nil
}

// Flush delivers the final timestamp's buffered entries. Call it once after
// the last Write; further writes must not go backwards in time.
func (u *UnifySink) Flush() error {
	if u.err != nil {
		return u.err
	}
	return u.flush()
}
