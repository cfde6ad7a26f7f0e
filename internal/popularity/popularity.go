// Package popularity implements the content-popularity analysis of
// Sec. IV-D and V-E: raw request popularity (RRP), unique request popularity
// (URP), empirical CDFs, and a discrete power-law fit in the style of
// Clauset, Shalizi & Newman used to test (and, on the paper's data, reject)
// the power-law hypothesis.
package popularity

import (
	"cmp"
	"container/heap"
	"slices"
	"sort"
	"strings"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
)

// Scores holds both popularity scores for a trace window.
type Scores struct {
	// RRP is the raw request popularity: total requests per CID ("on the
	// wire" behaviour, relevant to Bitswap performance).
	RRP map[cid.CID]int
	// URP is the unique request popularity: distinct requesting peers per
	// CID (approximates user-level popularity).
	URP map[cid.CID]int
}

// Compute derives both scores from a trace. CANCEL entries are ignored; the
// caller chooses whether to pass raw or deduplicated entries (the paper uses
// the deduplicated trace for popularity).
func Compute(entries []trace.Entry) Scores {
	rrp := make(map[cid.CID]int)
	peersPerCID := make(map[cid.CID]map[simnet.NodeID]bool)
	for _, e := range entries {
		if !e.IsRequest() {
			continue
		}
		rrp[e.CID]++
		m, ok := peersPerCID[e.CID]
		if !ok {
			m = make(map[simnet.NodeID]bool)
			peersPerCID[e.CID] = m
		}
		m[e.NodeID] = true
	}
	urp := make(map[cid.CID]int, len(peersPerCID))
	for c, peers := range peersPerCID {
		urp[c] = len(peers)
	}
	return Scores{RRP: rrp, URP: urp}
}

// Counter computes both popularity scores incrementally, so streaming
// pipelines (the fig5 and popularity reports) can score a trace in
// one pass without materialising it. State is kept by the dense ids a
// trace.Symbols issues: rrp and urp are slices indexed by CID id, and the
// distinct requesters of all CIDs live in one set of (CID id, peer id)
// pairs, so an entry costs one integer-keyed probe besides resolving its
// ids. Memory is proportional to the distinct (CID, peer) pairs observed —
// the same bound as the batch Compute — at 8 bytes a pair.
//
// Counter satisfies the ingest.Sink shape, so a unified stream can be copied
// straight into it. As with Compute, the caller chooses whether to feed raw
// or deduplicated entries; CANCELs are ignored.
type Counter struct {
	syms  *trace.Symbols
	rrp   []int // by CID id; 0 = not scored by this counter
	urp   []int
	pairs map[uint64]struct{} // CID id << 32 | peer id
	cids  int
}

// NewCounterWith returns an empty Counter that resolves peers and CIDs
// through syms, shared with the other consumers of the same pass.
func NewCounterWith(syms *trace.Symbols) *Counter {
	return &Counter{syms: syms, pairs: make(map[uint64]struct{})}
}

// Write folds one entry into the scores. It never fails; the error return
// satisfies streaming sink interfaces.
func (c *Counter) Write(e trace.Entry) error {
	if !e.IsRequest() {
		return nil
	}
	id := c.syms.CID(e.CID)
	c.grow(id)
	if c.rrp[id] == 0 {
		c.cids++
	}
	c.rrp[id]++
	n := len(c.pairs)
	c.pairs[uint64(id)<<32|uint64(c.syms.Peer(e.NodeID))] = struct{}{}
	if len(c.pairs) != n {
		c.urp[id]++
	}
	return nil
}

// Merge folds from's scores into c, so that c scores both streams as one
// Counter that had been written every entry of each would: RRPs add by CID
// id, the (CID, peer) pair sets are united, and a CID's URP counts its pairs
// new to c. Both must number through the same trace.Symbols (else
// trace.ErrOtherNumbering); from is left unchanged.
func (c *Counter) Merge(from *Counter) error {
	if c.syms != from.syms {
		return trace.ErrOtherNumbering
	}
	for id, n := range from.rrp {
		if n == 0 {
			continue
		}
		c.grow(uint32(id))
		if c.rrp[id] == 0 {
			c.cids++
		}
		c.rrp[id] += n
	}
	for k := range from.pairs {
		n := len(c.pairs)
		c.pairs[k] = struct{}{}
		if len(c.pairs) != n {
			c.urp[k>>32]++
		}
	}
	return nil
}

// grow extends the score slices to hold CID id.
func (c *Counter) grow(id uint32) {
	if int(id) >= len(c.rrp) {
		grow := int(id) + 1 - len(c.rrp)
		c.rrp = append(c.rrp, make([]int, grow)...)
		c.urp = append(c.urp, make([]int, grow)...)
	}
}

// SortedValues returns the RRP and the URP score of every CID scored so
// far, each in ascending order — what the ECDFs and the power-law fit read —
// straight from the id-indexed slices, without going through CID keys.
func (c *Counter) SortedValues() (rrp, urp []int) {
	rrp = make([]int, 0, c.cids)
	urp = make([]int, 0, c.cids)
	for id, n := range c.rrp {
		// A shared Symbols also numbers CIDs this counter never scored.
		if n > 0 {
			rrp = append(rrp, n)
			urp = append(urp, c.urp[id])
		}
	}
	sort.Ints(rrp)
	sort.Ints(urp)
	return rrp, urp
}

// CIDCount is one CID and its request count: an entry of a ranking.
type CIDCount struct {
	CID   cid.CID
	Count int
}

// Rank returns the k CIDs with the most requests, count descending and
// ties by CID key, the order in which Compute's RRP ranks them. counts
// holds each CID's request count by id, and cids names the CID of each id
// (a trace.Symbols' CIDs); a CID counted 0 (a shared Symbols also numbers
// CIDs the caller never counted) is not ranked. A k of at least
// len(counts) ranks every CID by one sort; a smaller k keeps only the best
// k in one walk of counts, so a top 10 of a long tail sorts ten.
func Rank(cids []cid.CID, counts []int, k int) []CIDCount {
	if k <= 0 {
		return nil
	}
	var out rankHeap
	keep := func(cc CIDCount) { out = append(out, cc) }
	if k < len(counts) {
		// out is a heap whose root is the last of the best k so far.
		keep = func(cc CIDCount) {
			if len(out) < k {
				heap.Push(&out, cc)
			} else if compareRank(cc, out[0]) < 0 {
				out[0] = cc
				heap.Fix(&out, 0)
			}
		}
	}
	for id, n := range counts {
		if n > 0 {
			keep(CIDCount{CID: cids[id], Count: n})
		}
	}
	slices.SortFunc(out, compareRank)
	return out
}

// compareRank orders a before b when a has more requests, or as many and
// the smaller CID key.
func compareRank(a, b CIDCount) int {
	if a.Count != b.Count {
		return cmp.Compare(b.Count, a.Count)
	}
	return strings.Compare(a.CID.Key(), b.CID.Key())
}

// rankHeap keeps the CID that ranks last at its root.
type rankHeap []CIDCount

func (h rankHeap) Len() int           { return len(h) }
func (h rankHeap) Less(i, j int) bool { return compareRank(h[i], h[j]) > 0 }
func (h rankHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *rankHeap) Push(x any)        { *h = append(*h, x.(CIDCount)) }
func (h *rankHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// ECDFPoint is one point of an empirical CDF.
type ECDFPoint struct {
	Value float64 `json:"value"`
	Prob  float64 `json:"prob"`
}

// ECDF computes the empirical cumulative distribution of integer scores:
// the curves of Fig. 5.
func ECDF(values []int) []ECDFPoint {
	if len(values) == 0 {
		return nil
	}
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	n := float64(len(sorted))
	var out []ECDFPoint
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		out = append(out, ECDFPoint{Value: float64(sorted[i]), Prob: float64(j) / n})
		i = j
	}
	return out
}

// ShareWithValue returns the fraction of entries whose score is exactly v
// (e.g. "over 80% of CIDs were only requested by one peer": v=1 on URP).
func ShareWithValue(values []int, v int) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, x := range values {
		if x == v {
			n++
		}
	}
	return float64(n) / float64(len(values))
}
