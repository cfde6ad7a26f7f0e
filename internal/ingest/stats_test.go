package ingest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

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

// TestOnlineStatsMerge: merging the aggregates of the two halves of a
// stream gives what one pass over all of it gives — buckets, totals,
// per-type counts, First and Last — and leaves the merged-from side as it
// was. The stream spans 4,111 hourly buckets, all of which are kept; most
// cuts split a bucket between the halves.
func TestOnlineStatsMerge(t *testing.T) {
	const hours = 4111
	rng := rand.New(rand.NewSource(8))
	var in []trace.Entry
	for h := 0; h < hours; h++ {
		for j := 0; j < 2; j++ {
			at := t0.Add(time.Duration(h)*time.Hour + time.Duration(j)*time.Minute)
			c := fmt.Sprintf("c%d", rng.Intn(5000))
			in = append(in, entry("us", byte(rng.Intn(200)), c, wire.EntryType(rng.Intn(3)+1), at))
		}
	}
	type view struct {
		Buckets           []TypeBucket
		Entries, Requests int64
		Types             map[wire.EntryType]int64
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
		return view{s.Buckets(), s.Entries(), s.Requests(), s.TypeCounts(), s.First(), s.Last()}
	}
	n := len(in)
	whole := look(pass(in))
	if len(whole.Buckets) != hours {
		t.Fatalf("one pass kept %d buckets, want %d", len(whole.Buckets), hours)
	}
	for _, cut := range []int{0, 1, 3, n / 3, n / 2, n - 1, n} {
		a, b := pass(in[:cut]), pass(in[cut:])
		from := look(b)
		a.Merge(b)
		if got := look(a); !reflect.DeepEqual(got, whole) {
			t.Errorf("cut %d: merged %d buckets, %d entries; one pass %d, %d",
				cut, len(got.Buckets), got.Entries, len(whole.Buckets), whole.Entries)
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
	if int(stats.Entries()) != len(in) || len(mem.entries) != len(in) {
		t.Errorf("tee fan-out lost entries: stats=%d mem=%d want=%d", stats.Entries(), len(mem.entries), len(in))
	}
	requests := 0
	for _, e := range mem.Snapshot() {
		if e.IsRequest() {
			requests++
		}
	}
	if int(stats.Requests()) != requests {
		t.Errorf("requests: online=%d batch=%d", stats.Requests(), requests)
	}
}
