package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

func TestOnlineStatsTypeCountsAndBuckets(t *testing.T) {
	s := NewOnlineStats(StatsOptions{Bucket: time.Hour})
	// 3 hours: hour 0 gets WANT_HAVEs, hour 1 WANT_BLOCKs, hour 2 CANCELs.
	for i := 0; i < 10; i++ {
		s.Write(entry("us", 1, "a", wire.WantHave, t0.Add(time.Duration(i)*time.Minute)))
	}
	for i := 0; i < 7; i++ {
		s.Write(entry("us", 1, "b", wire.WantBlock, t0.Add(time.Hour+time.Duration(i)*time.Minute)))
	}
	for i := 0; i < 4; i++ {
		s.Write(entry("us", 1, "a", wire.Cancel, t0.Add(2*time.Hour+time.Duration(i)*time.Minute)))
	}
	if s.Entries() != 21 || s.Requests() != 17 {
		t.Errorf("entries=%d requests=%d", s.Entries(), s.Requests())
	}
	tc := s.TypeCounts()
	if tc[wire.WantHave] != 10 || tc[wire.WantBlock] != 7 || tc[wire.Cancel] != 4 {
		t.Errorf("type counts = %v", tc)
	}
	buckets := s.Buckets()
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(buckets))
	}
	if buckets[0].WantHave != 10 || buckets[1].WantBlock != 7 || buckets[2].Cancel != 4 {
		t.Errorf("bucket contents: %+v", buckets)
	}
	if !s.First().Equal(t0) || !s.Last().Equal(t0.Add(2*time.Hour+3*time.Minute)) {
		t.Errorf("window = %v .. %v", s.First(), s.Last())
	}
}

func TestOnlineStatsBucketEviction(t *testing.T) {
	s := NewOnlineStats(StatsOptions{Bucket: time.Hour})
	const n = maxBuckets + 15
	for i := 0; i < n; i++ {
		s.Write(entry("us", 1, "a", wire.WantHave, t0.Add(time.Duration(i)*time.Hour)))
	}
	buckets := s.Buckets()
	if len(buckets) != maxBuckets {
		t.Fatalf("retained %d buckets, want %d", len(buckets), maxBuckets)
	}
	// The newest buckets survive.
	if !buckets[0].Start.Equal(t0.Add(15 * time.Hour).Truncate(time.Hour)) {
		t.Errorf("oldest retained bucket = %v", buckets[0].Start)
	}
	if !buckets[len(buckets)-1].Start.Equal(t0.Add((n - 1) * time.Hour).Truncate(time.Hour)) {
		t.Errorf("newest bucket = %v", buckets[len(buckets)-1].Start)
	}
	// Totals remain exact despite eviction.
	if s.Entries() != n {
		t.Errorf("entries = %d", s.Entries())
	}
}

func TestOnlineStatsDistinctEstimates(t *testing.T) {
	s := NewOnlineStats(StatsOptions{})
	rng := rand.New(rand.NewSource(5))
	const peers = 2000
	const perPeer = 5
	for p := 0; p < peers; p++ {
		id := simnet.RandomNodeID(rng)
		for j := 0; j < perPeer; j++ {
			e := trace.Entry{
				Timestamp: t0.Add(time.Duration(p*perPeer+j) * time.Second),
				Monitor:   "us",
				NodeID:    id,
				Addr:      "3.0.0.1:4001",
				Type:      wire.WantHave,
				CID:       cid.Sum(cid.Raw, []byte(fmt.Sprintf("c%d", p%500))),
			}
			s.Write(e)
		}
	}
	if est := s.DistinctPeers(); math.Abs(est-peers)/peers > 0.08 {
		t.Errorf("distinct peers estimate %.0f, want within 8%% of %d", est, peers)
	}
	if est := s.DistinctCIDs(); math.Abs(est-500)/500 > 0.08 {
		t.Errorf("distinct CIDs estimate %.0f, want within 8%% of 500", est)
	}
}

// TestOnlineStatsMerge: merging the aggregates of the two halves of a
// stream gives what one pass over all of it gives — buckets, evictions,
// totals, per-type counts, HyperLogLog estimates, First and Last — over
// more than maxBuckets hourly buckets, and leaves the merged-from side as
// it was. Most cuts split a bucket between the halves; at cuts 1 and 3 the
// second half alone evicts that split bucket.
func TestOnlineStatsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var in []trace.Entry
	for h := 0; h < maxBuckets+15; h++ {
		for j := 0; j < 2; j++ {
			at := t0.Add(time.Duration(h)*time.Hour + time.Duration(j)*time.Minute)
			c := fmt.Sprintf("c%d", rng.Intn(5000))
			in = append(in, entry("us", byte(rng.Intn(200)), c, wire.EntryType(rng.Intn(3)+1), at))
		}
	}
	type view struct {
		Buckets           []TypeBucket
		Evicted           int
		Entries, Requests int64
		Types             map[wire.EntryType]int64
		Peers, CIDs       float64
		First, Last       time.Time
	}
	pass := func(entries []trace.Entry) *OnlineStats {
		s := NewOnlineStats(StatsOptions{Bucket: time.Hour})
		for _, e := range entries {
			s.Write(e)
		}
		return s
	}
	look := func(s *OnlineStats) view {
		return view{s.Buckets(), s.EvictedBuckets(), s.Entries(), s.Requests(), s.TypeCounts(),
			s.DistinctPeers(), s.DistinctCIDs(), s.First(), s.Last()}
	}
	n := len(in)
	whole := look(pass(in))
	if whole.Evicted != 15 {
		t.Fatalf("one pass evicted %d buckets, want 15", whole.Evicted)
	}
	for _, cut := range []int{0, 1, 3, n / 3, n / 2, n - 1, n} {
		a, b := pass(in[:cut]), pass(in[cut:])
		from := look(b)
		a.Merge(b)
		if got := look(a); !reflect.DeepEqual(got, whole) {
			t.Errorf("cut %d: merged %d buckets (%d evicted), %d entries; one pass %d (%d), %d",
				cut, len(got.Buckets), got.Evicted, got.Entries, len(whole.Buckets), whole.Evicted, whole.Entries)
		}
		if got := look(b); !reflect.DeepEqual(got, from) {
			t.Errorf("cut %d: Merge changed the merged-from side", cut)
		}
	}
}

func TestOnlineStatsAsSinkInTee(t *testing.T) {
	stats := NewOnlineStats(StatsOptions{})
	mem := NewMemorySink()
	sink := Tee(mem, stats)
	rng := rand.New(rand.NewSource(3))
	in := randomMonitorTrace(rng, "us", 200, time.Hour)
	for _, e := range in {
		if err := sink.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if int(stats.Entries()) != len(in) || mem.Len() != len(in) {
		t.Errorf("tee fan-out lost entries: stats=%d mem=%d want=%d", stats.Entries(), mem.Len(), len(in))
	}
	sum := trace.Summarize(mem.Snapshot())
	if int(stats.Requests()) != sum.Requests {
		t.Errorf("requests: online=%d batch=%d", stats.Requests(), sum.Requests)
	}
}

func TestHyperLogLogSmallCounts(t *testing.T) {
	h := newHyperLogLog()
	if est := h.estimate(); est != 0 {
		t.Errorf("empty HLL estimate = %v", est)
	}
	seen := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(1))
	for len(seen) < 10 {
		v := rng.Uint64()
		seen[v] = true
		h.add(v)
		h.add(v) // duplicates must not change the estimate
	}
	if est := h.estimate(); math.Abs(est-10) > 1.5 {
		t.Errorf("HLL small-range estimate %.2f, want ~10", est)
	}
}

func TestOnlineStatsReportsEvictions(t *testing.T) {
	s := NewOnlineStats(StatsOptions{Bucket: time.Hour})
	for i := 0; i < maxBuckets; i++ {
		s.Write(entry("us", 1, "a", wire.WantHave, t0.Add(time.Duration(i)*time.Hour)))
	}
	if s.EvictedBuckets() != 0 {
		t.Errorf("evictions at the cap: %d", s.EvictedBuckets())
	}
	for i := maxBuckets; i < maxBuckets+15; i++ {
		s.Write(entry("us", 1, "a", wire.WantHave, t0.Add(time.Duration(i)*time.Hour)))
	}
	if got := s.EvictedBuckets(); got != 15 { // maxBuckets+15 buckets, maxBuckets retained
		t.Errorf("evictions = %d, want 15", got)
	}
}
