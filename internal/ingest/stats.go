package ingest

import (
	"maps"
	"math"
	"slices"
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

// maxBuckets bounds the retained windowed counters (≈ 170 days of hourly
// buckets); the oldest bucket is evicted beyond this.
const maxBuckets = 4096

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
// work and memory independent of trace length: exact per-type totals,
// windowed per-type counts, and HyperLogLog distinct-peer and distinct-CID
// estimates. Two aggregates merge into what one pass over both streams
// gives (Merge). It satisfies Sink, so it is typically Tee'd next to a
// SegmentStore on the capture path.
type OnlineStats struct {
	opts StatsOptions

	entries  int64
	requests int64
	perType  map[wire.EntryType]int64

	buckets        map[int64]*TypeBucket
	evictedBuckets int

	peers *hyperLogLog
	cids  *hyperLogLog

	first, last time.Time
}

// NewOnlineStats returns an empty aggregator.
func NewOnlineStats(opts StatsOptions) *OnlineStats {
	o := opts.withDefaults()
	return &OnlineStats{
		opts:    o,
		perType: make(map[wire.EntryType]int64),
		buckets: make(map[int64]*TypeBucket),
		peers:   newHyperLogLog(),
		cids:    newHyperLogLog(),
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
	s.peers.add(fnv64a(e.NodeID[:]))
	s.cids.add(fnv64aString(e.CID.Key()))

	k := s.bucketKey(e.Timestamp)
	b, ok := s.buckets[k]
	if !ok {
		if len(s.buckets) >= maxBuckets {
			s.evictOldestBucket()
		}
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

func (s *OnlineStats) bucketKey(t time.Time) int64 {
	return t.UnixNano() / int64(s.opts.Bucket)
}

func (s *OnlineStats) evictOldestBucket() {
	first := true
	var oldest int64
	for k := range s.buckets {
		if first || k < oldest {
			oldest = k
			first = false
		}
	}
	if !first {
		delete(s.buckets, oldest)
		s.evictedBuckets++
	}
}

// Merge folds from into s, so that s holds what one OnlineStats written
// s's stream and then from's would: the totals and per-type counts add,
// counts of one bucket add, HyperLogLog registers take the max, and First
// and Last widen. Both must use the same bucket width; from is left
// unchanged.
//
// Past maxBuckets the oldest buckets are evicted, as one pass evicts them
// when from's stream starts no earlier than s's ends. Only the bucket
// holding from's first entry can then be in both; if from evicted it, it
// is already counted there, so s drops its part of it uncounted.
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
	s.peers.merge(from.peers)
	s.cids.merge(from.cids)

	if from.evictedBuckets > 0 {
		delete(s.buckets, s.bucketKey(from.first))
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
	s.evictedBuckets += from.evictedBuckets
	if over := len(s.buckets) - maxBuckets; over > 0 {
		for _, k := range slices.Sorted(maps.Keys(s.buckets))[:over] {
			delete(s.buckets, k)
		}
		s.evictedBuckets += over
	}
}

// EvictedBuckets reports how many windowed counters were dropped to honour
// maxBuckets. Non-zero means Buckets() covers only the tail of the trace;
// renderers should surface that rather than present a silently clipped
// series.
func (s *OnlineStats) EvictedBuckets() int { return s.evictedBuckets }

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

// Buckets returns the retained windowed counters in time order.
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

// DistinctPeers estimates the number of distinct requesting peers.
func (s *OnlineStats) DistinctPeers() float64 { return s.peers.estimate() }

// DistinctCIDs estimates the number of distinct requested CIDs.
func (s *OnlineStats) DistinctCIDs() float64 { return s.cids.estimate() }

// --- HyperLogLog -----------------------------------------------------------

// hllP is the HyperLogLog precision: 2^hllP byte registers (4 KiB), giving
// a ~1.6% standard error — plenty for the paper's distinct-peer panels.
const hllP = 12

type hyperLogLog struct {
	reg [1 << hllP]uint8
}

func newHyperLogLog() *hyperLogLog { return &hyperLogLog{} }

func (h *hyperLogLog) add(hash uint64) {
	idx := hash >> (64 - hllP)
	rest := hash << hllP
	// rank = leading zeros of the remaining bits + 1, capped.
	rank := uint8(1)
	for rest != 0 && rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rest == 0 {
		rank = 64 - hllP + 1
	}
	if rank > h.reg[idx] {
		h.reg[idx] = rank
	}
}

// merge makes h the sketch of both streams: a register holds the highest
// rank either saw.
func (h *hyperLogLog) merge(from *hyperLogLog) {
	for i, r := range from.reg {
		h.reg[i] = max(h.reg[i], r)
	}
}

func (h *hyperLogLog) estimate() float64 {
	m := float64(len(h.reg))
	alpha := 0.7213 / (1 + 1.079/m)
	sum := 0.0
	zeros := 0
	for _, r := range h.reg {
		sum += math.Ldexp(1, -int(r))
		if r == 0 {
			zeros++
		}
	}
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// fnv64aString avoids the []byte(s) copy on the per-entry hot path.
func fnv64aString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
