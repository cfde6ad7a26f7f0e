package dht

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bitswapmon/internal/simnet"
)

// contains reports whether rt stores r.
func contains(rt *RoutingTable, r simnet.NodeRef) bool {
	return slices.Contains(rt.bucket(rt.refIndex(r)), r)
}

// checkBuckets checks the table's layout against references: every peer
// sits in the bucket of its full-ID common prefix length with the local ID
// (the 8-byte keys decide it only up to bucket 63), no bucket exceeds k,
// size counts the stored peers and the last bucket the table has grown is
// its highest non-empty one.
func checkBuckets(t testing.TB, rt *RoutingTable) {
	t.Helper()
	if len(rt.buckets) > 257 {
		t.Errorf("table has %d buckets", len(rt.buckets))
	}
	self := rt.tab.ID(rt.self)
	top, size := -1, 0
	for cpl := 0; cpl <= 256; cpl++ {
		bucket := rt.bucket(cpl)
		if len(bucket) > rt.k {
			t.Errorf("bucket %d holds %d peers, k = %d", cpl, len(bucket), rt.k)
		}
		for _, r := range bucket {
			if got := self.CommonPrefixLen(rt.tab.ID(r)); got != cpl {
				t.Errorf("peer %s with common prefix %d sits in bucket %d", rt.tab.ID(r), got, cpl)
			}
		}
		if len(bucket) > 0 {
			top = cpl
		}
		size += len(bucket)
	}
	if len(rt.buckets)-1 != top || rt.size != size {
		t.Errorf("%d buckets and size %d, want %d and %d", len(rt.buckets), rt.size, top+1, size)
	}
}

// TestQuickBucketInvariant: the layout checkBuckets pins holds, and Contains
// finds every accepted peer, under arbitrary sequences of new peers and
// repeats of stored ones.
func TestQuickBucketInvariant(t *testing.T) {
	f := func(seed int64, ops []bool) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := newTable(simnet.RandomNodeID(rng), 4)
		var present []simnet.NodeRef
		for _, fresh := range ops {
			if fresh || len(present) == 0 {
				r := register(rt.tab, simnet.RandomNodeID(rng))
				if rt.Add(r, true) {
					present = append(present, r)
				}
			} else if rt.Add(present[rng.Intn(len(present))], true) {
				return false // a repeat is never inserted twice
			}
		}
		checkBuckets(t, rt)
		if rt.size != len(present) {
			return false
		}
		for _, r := range present {
			if !contains(rt, r) {
				return false
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// sortByDistance is the brute-force reference order: refs sorted by the
// full XOR distance of their IDs to target.
func sortByDistance(tab *simnet.Table, refs []simnet.NodeRef, target simnet.NodeID) {
	slices.SortFunc(refs, func(a, b simnet.NodeRef) int {
		return simnet.DistanceCompare(target, tab.ID(a), tab.ID(b))
	})
}

// checkClosest compares AppendClosest with a brute-force reference — sort
// the whole table by XOR distance to the target and take the first n —
// pinning both the result set and its order.
func checkClosest(t testing.TB, rt *RoutingTable, target simnet.NodeID, n int) {
	t.Helper()
	want := slices.Concat(rt.buckets...)
	sortByDistance(rt.tab, want, target)
	want = want[:min(max(n, 0), len(want))]
	if got := rt.AppendClosest(nil, target, n); !slices.Equal(got, want) {
		t.Errorf("AppendClosest(%s, %d) over %d peers, cpl(self, target) = %d:\n got %v\nwant %v",
			target, n, rt.size, rt.tab.ID(rt.self).CommonPrefixLen(target),
			ids(rt.tab, got), ids(rt.tab, want))
	}
}

// TestQuickClosestSorted: AppendClosest matches the brute-force reference on
// sparse tables (at most 255 inserts, so few buckets fill).
func TestQuickClosestSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := newTable(simnet.RandomNodeID(rng), 20)
		for i := 0; i < int(n); i++ {
			add(rt, simnet.RandomNodeID(rng))
		}
		checkClosest(t, rt, simnet.RandomNodeID(rng), 10)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// flipBit returns id with the given bit (0 = most significant) inverted: the
// result shares exactly bit leading bits with id.
func flipBit(id simnet.NodeID, bit int) simnet.NodeID {
	id[bit/8] ^= 0x80 >> (bit % 8)
	return id
}

// TestClosestDistanceClasses drives every branch of AppendClosest's bucket
// walk on a table with several full buckets and a run of empty buckets below
// a non-empty one, and on an empty table.
func TestClosestDistanceClasses(t *testing.T) {
	const k = DefaultK
	rng := rand.New(rand.NewSource(7))
	self := simnet.RandomNodeID(rng)
	rt := newTable(self, k)
	for i := 0; i < 2500; i++ {
		add(rt, simnet.RandomNodeID(rng))
	}
	// Random IDs stop near bucket 11; a few hand-placed peers far above
	// leave a run of empty buckets below a non-empty one.
	for _, bit := range []int{40, 40, 41, 90, 255} {
		id := flipBit(self, bit)
		if bit < 248 {
			id[31] ^= byte(rng.Intn(256))
		}
		add(rt, id)
	}
	checkBuckets(t, rt)
	full := 0
	for cpl := 0; cpl <= 256; cpl++ {
		if len(rt.bucket(cpl)) == k {
			full++
		}
	}
	if full < 4 || len(rt.buckets) != 256 {
		t.Fatalf("table has %d full buckets of %d, want several of 256", full, len(rt.buckets))
	}

	stored := ids(rt.tab, slices.Concat(rt.buckets...))
	// The highest bucket that random inserts reached holds fewer than k
	// peers: a target there finds class 1 short of n.
	sparse := 0
	for cpl := 0; cpl < 40; cpl++ {
		if l := len(rt.bucket(cpl)); l > 0 && l < k {
			sparse = cpl
		}
	}
	targets := map[string]simnet.NodeID{
		"self":                  self,
		"stored peer":           stored[len(stored)/2],
		"stored peer, top":      stored[len(stored)-1],
		"random":                simnet.RandomNodeID(rng),
		"class 1 empty":         flipBit(self, 30), // buckets 40, 41, 90, 255 are class 2
		"class 1 and 2 empty":   flipBit(self, 200),
		"above top":             flipBit(self, 255),
		"class 1 short of n":    flipBit(flipBit(self, sparse), 250),
		"class 1 exactly one":   flipBit(flipBit(self, 90), 254),
		"full bucket, bucket 0": flipBit(self, 0),
	}
	for name, target := range targets {
		for _, n := range []int{-1, 0, 1, k, rt.size, rt.size + 5} {
			checkClosest(t, rt, target, n)
		}
		if t.Failed() {
			t.Fatalf("target %q", name)
		}
	}

	if got := newTable(self, k).AppendClosest(nil, self, k); len(got) != 0 {
		t.Errorf("AppendClosest on an empty table = %v", got)
	}
}

// fuzzID places an ID at common-prefix-length bit from self and XORs tail
// into the bytes after that bit's byte, so fuzz input reaches the deep
// buckets that uniformly random 32-byte IDs never would. Bits of 64 and
// above give IDs that share self's 8-byte key: their bucket index, and their
// rank against a target near self, fall back to the full IDs.
func fuzzID(self simnet.NodeID, bit byte, tail []byte) simnet.NodeID {
	id := flipBit(self, int(bit))
	for i, x := range tail {
		if at := int(bit)/8 + 1 + i; at < len(id) {
			id[at] ^= x
		}
	}
	return id
}

// FuzzClosest builds a table and a target from the input and compares
// AppendClosest with the brute-force reference. Byte 0 picks the bucket
// size, byte 1 is n, then come 5-byte records of bit, three tail bytes (see
// fuzzID) and an op: the first record is the target (the local ID itself on
// op 1), every later one a peer to add as a server (op 0) or as a client,
// which the table must ignore (op 1).
func FuzzClosest(f *testing.F) {
	seed := func(k, n byte, recs ...[5]byte) {
		data := []byte{k, n}
		for _, r := range recs {
			data = append(data, r[:]...)
		}
		f.Add(data)
	}
	// Target in a full bucket (k = 2), in an empty bucket below two
	// occupied ones, equal to a stored peer that is then repeated as a
	// client, and the local ID itself.
	seed(1, 2, [5]byte{3, 9}, [5]byte{3, 2}, [5]byte{3, 4}, [5]byte{3, 6}, [5]byte{0, 2}, [5]byte{7, 2})
	seed(3, 20, [5]byte{5}, [5]byte{9, 2}, [5]byte{9, 4}, [5]byte{200, 2}, [5]byte{1, 2}, [5]byte{1, 4})
	seed(3, 3, [5]byte{9, 2}, [5]byte{9, 2}, [5]byte{9, 4}, [5]byte{2, 2}, [5]byte{9, 4, 0, 0, 1})
	seed(0, 255, [5]byte{0, 0, 0, 0, 1}, [5]byte{255}, [5]byte{254}, [5]byte{100, 2}, [5]byte{100, 4}, [5]byte{0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		self := simnet.DeriveNodeID([]byte("fuzz-self"))
		rt := newTable(self, 1+int(data[0]%4))
		n := int(data[1])
		target := self
		if data[6]&1 == 0 {
			target = fuzzID(self, data[2], data[3:6])
		}
		for rec := data[7:]; len(rec) >= 5; rec = rec[5:] {
			r := register(rt.tab, fuzzID(self, rec[0], rec[1:4]))
			server := rec[4]&1 == 0
			if rt.Add(r, server) && !server {
				t.Errorf("client %s entered the table", rt.tab.ID(r))
			}
		}
		checkClosest(t, rt, target, n)
		checkBuckets(t, rt)
	})
}

// TestQuickProviderStoreNeverReturnsExpired: Get never returns a record
// older than the TTL.
func TestQuickProviderStore(t *testing.T) {
	f := func(seed int64, adds uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewProviderStore(0)
		key := Key(simnet.RandomNodeID(rng))
		for i := 0; i < int(adds); i++ {
			s.Add(key, PeerInfo{ID: simnet.RandomNodeID(rng)}, t0)
		}
		within := s.Get(key, t0.Add(DefaultProviderTTL-1))
		after := s.Get(key, t0.Add(DefaultProviderTTL+1))
		return len(within) == int(adds) && len(after) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
