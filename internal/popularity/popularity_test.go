package popularity

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

func req(node byte, c string, typ wire.EntryType) trace.Entry {
	var id simnet.NodeID
	id[0] = node
	return trace.Entry{
		Timestamp: t0,
		Monitor:   "us",
		NodeID:    id,
		Type:      typ,
		CID:       cid.Sum(cid.Raw, []byte(c)),
	}
}

func TestComputeScores(t *testing.T) {
	entries := []trace.Entry{
		req(1, "a", wire.WantHave),
		req(1, "a", wire.WantHave), // same peer again: RRP+1, URP same
		req(2, "a", wire.WantHave), // second peer
		req(3, "b", wire.WantBlock),
		req(3, "b", wire.Cancel), // cancels don't count
	}
	s := Compute(entries)
	ca := cid.Sum(cid.Raw, []byte("a"))
	cb := cid.Sum(cid.Raw, []byte("b"))
	if s.RRP[ca] != 3 || s.URP[ca] != 2 {
		t.Errorf("a: rrp=%d urp=%d, want 3, 2", s.RRP[ca], s.URP[ca])
	}
	if s.RRP[cb] != 1 || s.URP[cb] != 1 {
		t.Errorf("b: rrp=%d urp=%d, want 1, 1", s.RRP[cb], s.URP[cb])
	}
}

// TestCounterMatchesBatch: the incremental Counter agrees with the batch
// Compute on a randomized entry stream.
func TestCounterMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var entries []trace.Entry
	for i := 0; i < 2000; i++ {
		entries = append(entries, req(byte(rng.Intn(40)),
			string(rune('a'+rng.Intn(25))), wire.EntryType(rng.Intn(3)+1)))
	}
	want := Compute(entries)
	c := NewCounterWith(trace.NewSymbols())
	for _, e := range entries {
		if err := c.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	checkCounter(t, "counter", c, want)
}

// ranked is the reference RRP ranking of scores: count descending, ties by
// CID key.
func ranked(scores map[cid.CID]int) []CIDCount {
	out := make([]CIDCount, 0, len(scores))
	for c, n := range scores {
		out = append(out, CIDCount{CID: c, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].CID.Key() < out[j].CID.Key()
	})
	return out
}

// sortedValues returns the values of scores in ascending order.
func sortedValues(scores map[cid.CID]int) []int {
	out := make([]int, 0, len(scores))
	for _, v := range scores {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// checkCounter fails unless c ranks its CIDs by RRP and by URP as want
// does and its SortedValues are want's RRP and URP values.
func checkCounter(t *testing.T, what string, c *Counter, want Scores) {
	t.Helper()
	if got, want := Rank(c.syms, c.rrp, c.cids), ranked(want.RRP); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: RRP ranking differs from Compute's (%d/%d CIDs)", what, len(got), len(want))
	}
	if got, want := Rank(c.syms, c.urp, c.cids), ranked(want.URP); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: URP ranking differs from Compute's (%d/%d CIDs)", what, len(got), len(want))
	}
	rrp, urp := c.SortedValues()
	if !reflect.DeepEqual(rrp, sortedValues(want.RRP)) || !reflect.DeepEqual(urp, sortedValues(want.URP)) {
		t.Errorf("%s: SortedValues differ from Compute's scores", what)
	}
	if c.cids != len(want.RRP) {
		t.Errorf("%s: %d CIDs scored, want %d", what, c.cids, len(want.RRP))
	}
}

func TestECDF(t *testing.T) {
	pts := ECDF([]int{1, 1, 1, 2, 5})
	if len(pts) != 3 {
		t.Fatalf("ecdf points = %d", len(pts))
	}
	if pts[0].Value != 1 || math.Abs(pts[0].Prob-0.6) > 1e-12 {
		t.Errorf("p(<=1) = %v", pts[0])
	}
	if pts[2].Value != 5 || pts[2].Prob != 1 {
		t.Errorf("last point = %v", pts[2])
	}
	if ECDF(nil) != nil {
		t.Error("empty ECDF should be nil")
	}
}

func TestShareWithValue(t *testing.T) {
	vals := []int{1, 1, 1, 1, 2, 3, 9, 1}
	if got := ShareWithValue(vals, 1); math.Abs(got-5.0/8) > 1e-12 {
		t.Errorf("share = %v", got)
	}
	if ShareWithValue(nil, 1) != 0 {
		t.Error("empty share should be 0")
	}
}

func genPowerLaw(rng *rand.Rand, n, xmin int, alpha float64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = samplePowerLaw(rng, xmin, alpha)
	}
	return out
}

func TestFitRecoversAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := genPowerLaw(rng, 20000, 1, 2.5)
	fit, err := FitPowerLaw(data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-2.5) > 0.15 {
		t.Errorf("alpha = %v, want ~2.5", fit.Alpha)
	}
	if fit.Xmin > 5 {
		t.Errorf("xmin = %d, want small", fit.Xmin)
	}
}

func TestPowerLawAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := genPowerLaw(rng, 3000, 1, 2.2)
	rejected, _, p, err := RejectsPowerLaw(data, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rejected {
		t.Errorf("true power-law data rejected (p=%v)", p)
	}
}

func TestPowerLawRejectedForLognormalMixture(t *testing.T) {
	// A distribution like the paper's: mostly ones plus a lognormal bulk —
	// clearly not a power law once the sample is large enough.
	rng := rand.New(rand.NewSource(3))
	n := 20000
	data := make([]int, n)
	for i := range data {
		if rng.Float64() < 0.5 {
			data[i] = 1 + rng.Intn(3)
		} else {
			v := int(math.Exp(rng.NormFloat64()*0.5 + 2.5))
			if v < 1 {
				v = 1
			}
			data[i] = v
		}
	}
	rejected, fit, p, err := RejectsPowerLaw(data, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !rejected {
		t.Errorf("lognormal mixture not rejected: p=%v fit=%+v", p, fit)
	}
}

func TestFitTooFewSamples(t *testing.T) {
	if _, err := FitPowerLaw([]int{1, 2, 3}); err == nil {
		t.Error("tiny sample accepted")
	}
}

// bestTailWithoutFraction is the tail size of the KS-best fit when the xmin
// scan keeps only the absolute floor of minTail observations, not the 5 %
// one.
func bestTailWithoutFraction(values []int) int {
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	bestKS, bestTail := math.Inf(1), 0
	for lo := 0; lo < len(sorted); {
		xmin := sorted[lo]
		tail := sorted[lo:]
		for lo < len(sorted) && sorted[lo] == xmin {
			lo++
		}
		if xmin < 1 || len(tail) < minTail {
			continue
		}
		alpha := refAlphaMLE(tail, xmin)
		if math.IsInf(alpha, 1) || alpha <= 1 {
			continue
		}
		if ks := refKSDistance(tail, xmin, alpha); ks < bestKS {
			bestKS, bestTail = ks, len(tail)
		}
	}
	return bestTail
}

// TestFitTailFloor checks the xmin scan's tail floor: every fit rests on at
// least 10 observations and at least 5 % of the sample, also where a smaller
// tail would have the lower KS distance.
func TestFitTailFloor(t *testing.T) {
	floored := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{60, 300, 1000, 4000} {
			data := make([]int, n)
			for i := range data {
				data[i] = 1 + int(math.Exp(rng.NormFloat64()*1.5))
			}
			fit, err := FitPowerLaw(data)
			if err != nil {
				t.Fatalf("seed %d, n %d: %v", seed, n, err)
			}
			floor := max(10, n/20)
			if fit.NTail < floor {
				t.Errorf("seed %d, n %d: tail of %d observations, want at least %d", seed, n, fit.NTail, floor)
			}
			if bestTailWithoutFraction(data) < floor {
				floored++
			}
		}
	}
	// The 5 % floor must bind somewhere, or the check above proves nothing.
	if floored == 0 {
		t.Fatal("no sample's best fit without the 5 % floor has a smaller tail")
	}
}

func TestSamplePowerLawBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		v := samplePowerLaw(rng, 5, 2.0)
		if v < 5 {
			t.Fatalf("sample %d below xmin", v)
		}
	}
}

// TestRank: Rank orders by count descending and then by CID key, ranks
// only the CIDs counted, and returns the best k for any k.
func TestRank(t *testing.T) {
	syms := trace.NewSymbols()
	var counts []int
	want := make(map[cid.CID]int)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		c := cid.Sum(cid.Raw, []byte(strconv.Itoa(i)))
		id := syms.CID(c)
		counts = append(counts, 0)
		if i%7 != 0 { // every seventh CID is numbered but never counted
			counts[id] = 1 + rng.Intn(12) // many ties
			want[c] = counts[id]
		}
	}
	all := ranked(want)
	for _, k := range []int{0, 1, 5, 100, len(all) - 1, len(all), len(all) + 1, len(counts)} {
		got := Rank(syms, counts, k)
		wantK := all[:min(k, len(all))]
		if len(got) != len(wantK) || len(got) > 0 && !reflect.DeepEqual(got, wantK) {
			t.Errorf("k=%d: ranking differs from the reference (%d vs %d CIDs)", k, len(got), len(wantK))
		}
	}
	if got := Rank(trace.NewSymbols(), nil, 10); len(got) != 0 {
		t.Errorf("empty ranking = %v", got)
	}
}

// TestSharedSymbols: a Summarizer on the raw trace and two Counters on its
// deduplicated view (what a report.Driver feeds summary, fig5 and
// popularity) number their peers and CIDs through one trace.Symbols. Each
// sees ids the others caused and ids it never scores, and must still equal
// its stand-alone twin and the batch Compute.
func TestSharedSymbols(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var raw []trace.Entry
	for i := 0; i < 6000; i++ {
		e := req(byte(rng.Intn(60)), strconv.Itoa(int(3000*rng.Float64()*rng.Float64())), wire.EntryType(rng.Intn(3)+1))
		if rng.Intn(25) == 0 {
			e.CID = cid.CID{} // undefined CID: a key like any other
		}
		if rng.Intn(3) == 0 {
			e.Flags = trace.FlagRebroadcast
		}
		raw = append(raw, e)
	}
	dedup := trace.Deduplicated(raw)

	syms := trace.NewSymbols()
	sum, aloneSum := trace.NewSummarizerWith(syms), trace.NewSummarizerWith(trace.NewSymbols())
	c1, c2, alone := NewCounterWith(syms), NewCounterWith(syms), NewCounterWith(trace.NewSymbols())
	for i, e := range raw {
		sum.Write(e)
		aloneSum.Write(e)
		if e.IsDuplicate() {
			continue
		}
		c1.Write(e)
		alone.Write(e)
		// The second counter joins late and so skips ids the first has.
		if i >= len(raw)/2 {
			c2.Write(e)
		}
	}

	if got, want := sum.Summary(), aloneSum.Summary(); got.UniquePeers != want.UniquePeers ||
		got.UniqueCIDs != want.UniqueCIDs || got.Entries != want.Entries {
		t.Errorf("shared summary %+v, stand-alone %+v", got, want)
	}
	var late []trace.Entry
	for i, e := range raw {
		if i >= len(raw)/2 && !e.IsDuplicate() {
			late = append(late, e)
		}
	}
	for _, tc := range []struct {
		name string
		c    *Counter
		want Scores
	}{
		{"shared", c1, Compute(dedup)},
		{"shared, joined late", c2, Compute(late)},
		{"stand-alone", alone, Compute(dedup)},
	} {
		checkCounter(t, tc.name+" counter", tc.c, tc.want)
	}
	if len(Compute(late).RRP) == len(Compute(dedup).RRP) || sum.Summary().UniqueCIDs == c1.cids {
		t.Fatal("fixture too uniform: every consumer saw the same CIDs")
	}
}

// TestAlphaMLEBitIdentical: taking the logarithm once per run of equal
// values must not change a single bit of the sum, or every fit, KS distance
// and bootstrap p-value downstream would drift.
func TestAlphaMLEBitIdentical(t *testing.T) {
	perElement := func(tail []int, xmin int) float64 {
		var s float64
		for _, x := range tail {
			s += math.Log(float64(x) / (float64(xmin) - 0.5))
		}
		if s == 0 {
			return math.Inf(1)
		}
		return 1 + float64(len(tail))/s
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(3000)
		spread := 1 + rng.Intn(1+round) // few distinct values early, many later
		xmin := 1 + rng.Intn(5)
		tail := make([]int, n)
		for i := range tail {
			tail[i] = xmin + rng.Intn(spread)
		}
		sort.Ints(tail)
		var runs tally
		for _, v := range tail {
			runs.add(v)
		}
		got, want := alphaMLE(runs.runs(), n, xmin), perElement(tail, xmin)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d (n=%d, spread=%d, xmin=%d): alphaMLE = %x, per-element formula = %x",
				round, n, spread, xmin, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
