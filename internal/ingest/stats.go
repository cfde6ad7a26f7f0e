package ingest

import (
	"container/heap"
	"math"
	"sort"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// StatsOptions tunes an OnlineStats aggregator.
type StatsOptions struct {
	// Bucket is the width of the windowed request-type counters.
	// Default 1h.
	Bucket time.Duration
	// TopK is how many popular CIDs TopCIDs can report exactly-ish; the
	// space-saving sketch keeps 8*TopK counters so the top TopK are
	// reliable under skew. Default 20.
	TopK int
}

// maxBuckets bounds the retained windowed counters (≈ 170 days of hourly
// buckets); the oldest bucket is evicted beyond this.
const maxBuckets = 4096

func (o StatsOptions) withDefaults() StatsOptions {
	if o.Bucket <= 0 {
		o.Bucket = time.Hour
	}
	if o.TopK <= 0 {
		o.TopK = 20
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

// CIDCount is one entry of the top-K popularity estimate.
type CIDCount struct {
	CID cid.CID
	// Count is the space-saving estimate of the CID's request count; it
	// never undercounts and overcounts by at most ErrBound.
	Count int64
	// ErrBound is the sketch's overcount bound for this CID.
	ErrBound int64
}

// OnlineStats aggregates a trace stream in one pass with O(1)-per-entry
// work and memory independent of trace length: exact per-type totals,
// windowed per-type counts, HyperLogLog distinct-peer and distinct-CID
// estimates, and a space-saving top-K CID popularity sketch. It satisfies
// Sink, so it is typically Tee'd next to a SegmentStore on the capture
// path.
type OnlineStats struct {
	opts StatsOptions

	entries  int64
	requests int64
	perType  map[wire.EntryType]int64

	buckets        map[int64]*TypeBucket
	evictedBuckets int

	peers *hyperLogLog
	cids  *hyperLogLog
	top   *spaceSaving

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
		top:     newSpaceSaving(8 * o.TopK),
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

	k := e.Timestamp.UnixNano() / int64(s.opts.Bucket)
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
		s.top.observe(e.CID.Key())
	}
	return nil
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

// TopCIDs returns the estimated k most-requested CIDs, most popular first.
// k is capped at the configured TopK.
func (s *OnlineStats) TopCIDs(k int) []CIDCount {
	if k <= 0 || k > s.opts.TopK {
		k = s.opts.TopK
	}
	items := s.top.items()
	sort.Slice(items, func(i, j int) bool {
		if items[i].count != items[j].count {
			return items[i].count > items[j].count
		}
		return items[i].key < items[j].key
	})
	if len(items) > k {
		items = items[:k]
	}
	out := make([]CIDCount, 0, len(items))
	for _, it := range items {
		c, err := cid.Decode([]byte(it.key))
		if err != nil {
			continue // key was produced by CID.Key(); decode cannot fail
		}
		out = append(out, CIDCount{CID: c, Count: it.count, ErrBound: it.errBound})
	}
	return out
}

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

// --- Space-saving top-K sketch ---------------------------------------------

// ssItem is one monitored counter of the space-saving sketch (Metwally et
// al., "Efficient Computation of Frequent and Top-k Elements in Data
// Streams").
type ssItem struct {
	key      string
	count    int64
	errBound int64
	idx      int // heap index
}

type ssHeap []*ssItem

func (h ssHeap) Len() int           { return len(h) }
func (h ssHeap) Less(i, j int) bool { return h[i].count < h[j].count }
func (h ssHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *ssHeap) Push(x any)        { it := x.(*ssItem); it.idx = len(*h); *h = append(*h, it) }
func (h *ssHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

type spaceSaving struct {
	capacity int
	m        map[string]*ssItem
	h        ssHeap
}

func newSpaceSaving(capacity int) *spaceSaving {
	if capacity < 1 {
		capacity = 1
	}
	return &spaceSaving{capacity: capacity, m: make(map[string]*ssItem, capacity)}
}

func (s *spaceSaving) observe(key string) {
	if it, ok := s.m[key]; ok {
		it.count++
		heap.Fix(&s.h, it.idx)
		return
	}
	if len(s.m) < s.capacity {
		it := &ssItem{key: key, count: 1}
		s.m[key] = it
		heap.Push(&s.h, it)
		return
	}
	// Replace the minimum counter: the newcomer inherits its count as the
	// overcount bound.
	min := s.h[0]
	delete(s.m, min.key)
	min.errBound = min.count
	min.count++
	min.key = key
	s.m[key] = min
	heap.Fix(&s.h, 0)
}

func (s *spaceSaving) items() []ssItem {
	out := make([]ssItem, 0, len(s.h))
	for _, it := range s.h {
		out = append(out, *it)
	}
	return out
}
