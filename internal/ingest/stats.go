package ingest

import (
	"sort"
	"time"

	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// StatsOptions tunes an OnlineStats aggregator.
type StatsOptions struct {
	// Bucket is the width of the windowed request-type counters.
	// Default 1h.
	Bucket time.Duration
}

func (o StatsOptions) withDefaults() StatsOptions {
	if o.Bucket <= 0 {
		o.Bucket = time.Hour
	}
	return o
}

// TypeBucket is one time window's request-type counts.
type TypeBucket struct {
	Start     time.Time
	WantBlock int64
	WantHave  int64
	Cancel    int64
}

// OnlineStats aggregates a trace stream in one pass with O(1)-per-entry
// work: exact per-type totals, First and Last, and per-type counts for
// every time bucket the stream touches. Its memory grows with the number of
// buckets, not of entries. Two aggregates merge into what one pass over
// both streams gives (Merge). No analysis uses it: the online report counts
// the same facts with the report package's summary and fig4 accumulators.
// It is kept only because the benchmark harness (bench/) builds one.
type OnlineStats struct {
	opts StatsOptions

	entries  int64
	requests int64
	perType  map[wire.EntryType]int64

	buckets map[int64]*TypeBucket

	first, last time.Time
}

// NewOnlineStats returns an empty aggregator.
func NewOnlineStats(opts StatsOptions) *OnlineStats {
	o := opts.withDefaults()
	return &OnlineStats{
		opts:    o,
		perType: make(map[wire.EntryType]int64),
		buckets: make(map[int64]*TypeBucket),
	}
}

// Write folds one entry into the aggregates.
func (s *OnlineStats) Write(e trace.Entry) error {
	if s.entries == 0 || e.Timestamp.Before(s.first) {
		s.first = e.Timestamp
	}
	if s.entries == 0 || e.Timestamp.After(s.last) {
		s.last = e.Timestamp
	}
	s.entries++
	s.perType[e.Type]++

	k := e.Timestamp.UnixNano() / int64(s.opts.Bucket)
	b, ok := s.buckets[k]
	if !ok {
		b = &TypeBucket{Start: time.Unix(0, k*int64(s.opts.Bucket)).UTC()}
		s.buckets[k] = b
	}
	switch e.Type {
	case wire.WantBlock:
		b.WantBlock++
	case wire.WantHave:
		b.WantHave++
	case wire.Cancel:
		b.Cancel++
	}

	if e.IsRequest() {
		s.requests++
	}
	return nil
}

// Merge folds from into s, so that s holds what one OnlineStats written
// s's stream and then from's would: the totals and per-type counts add,
// counts of one bucket add, and First and Last widen. Both must use the
// same bucket width; from is left unchanged.
func (s *OnlineStats) Merge(from *OnlineStats) {
	if from.entries == 0 {
		return
	}
	if s.entries == 0 || from.first.Before(s.first) {
		s.first = from.first
	}
	if s.entries == 0 || from.last.After(s.last) {
		s.last = from.last
	}
	s.entries += from.entries
	s.requests += from.requests
	for typ, n := range from.perType {
		s.perType[typ] += n
	}
	for k, fb := range from.buckets {
		if b, ok := s.buckets[k]; ok {
			b.WantBlock += fb.WantBlock
			b.WantHave += fb.WantHave
			b.Cancel += fb.Cancel
		} else {
			b := *fb
			s.buckets[k] = &b
		}
	}
}

// Entries returns the total entries observed.
func (s *OnlineStats) Entries() int64 { return s.entries }

// Requests returns the non-CANCEL entries observed.
func (s *OnlineStats) Requests() int64 { return s.requests }

// TypeCounts returns the exact per-type totals.
func (s *OnlineStats) TypeCounts() map[wire.EntryType]int64 {
	out := make(map[wire.EntryType]int64, len(s.perType))
	for k, v := range s.perType {
		out[k] = v
	}
	return out
}

// First and Last bound the observed timestamps.
func (s *OnlineStats) First() time.Time { return s.first }

// Last returns the latest observed timestamp.
func (s *OnlineStats) Last() time.Time { return s.last }

// Buckets returns the windowed counters in time order.
func (s *OnlineStats) Buckets() []TypeBucket {
	out := make([]TypeBucket, 0, len(s.buckets))
	for _, b := range s.buckets {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// BucketSize returns the configured window width.
func (s *OnlineStats) BucketSize() time.Duration { return s.opts.Bucket }
