package dht

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bitswapmon/internal/simnet"
)

// highestNonEmpty is the reference for RoutingTable.top. It also checks the
// grown-on-demand layout: the table holds no bucket beyond 256, and top
// never points past the buckets it has grown.
func highestNonEmpty(t testing.TB, rt *RoutingTable) int {
	t.Helper()
	if len(rt.buckets) > 257 || rt.top >= len(rt.buckets) {
		t.Errorf("table has %d buckets and top %d", len(rt.buckets), rt.top)
	}
	top := -1
	for cpl := 0; cpl <= 256; cpl++ {
		if len(rt.bucket(cpl)) > 0 {
			top = cpl
		}
	}
	return top
}

// TestQuickBucketInvariant: no bucket ever exceeds k, Size matches the
// number of Contains-able peers, and top marks the highest non-empty bucket,
// under arbitrary Add/Remove sequences.
func TestQuickBucketInvariant(t *testing.T) {
	f := func(seed int64, ops []bool) bool {
		rng := rand.New(rand.NewSource(seed))
		self := simnet.RandomNodeID(rng)
		rt := NewRoutingTable(self, 4)
		var present []simnet.NodeID
		for _, add := range ops {
			if add || len(present) == 0 {
				id := simnet.RandomNodeID(rng)
				if rt.Add(PeerInfo{ID: id, Server: true}) {
					present = append(present, id)
				}
			} else {
				idx := rng.Intn(len(present))
				rt.Remove(present[idx])
				present = append(present[:idx], present[idx+1:]...)
			}
		}
		if rt.Size() != len(present) {
			return false
		}
		for cpl := 0; cpl <= 256; cpl++ {
			if len(rt.Bucket(cpl)) > 4 {
				return false
			}
		}
		if rt.top != highestNonEmpty(t, rt) {
			return false
		}
		for _, id := range present {
			if !rt.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// checkClosest compares Closest with a brute-force reference — sort the
// whole table by XOR distance to the target and take the first n — pinning
// both the result set and its order.
func checkClosest(t testing.TB, rt *RoutingTable, target simnet.NodeID, n int) {
	t.Helper()
	want := rt.All()
	SortByDistance(want, target)
	want = want[:min(max(n, 0), len(want))]
	if got := rt.Closest(target, n); !slices.Equal(got, want) {
		t.Errorf("Closest(%s, %d) over %d peers, cpl(self, target) = %d:\n got %v\nwant %v",
			target, n, rt.Size(), rt.bucketIndex(target), got, want)
	}
}

// TestQuickClosestSorted: Closest matches the brute-force reference on
// sparse tables (at most 255 inserts, so few buckets fill).
func TestQuickClosestSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		self := simnet.RandomNodeID(rng)
		rt := NewRoutingTable(self, 20)
		for i := 0; i < int(n); i++ {
			rt.Add(PeerInfo{ID: simnet.RandomNodeID(rng), Server: true})
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

// TestClosestDistanceClasses drives every branch of Closest's bucket walk on
// a table with several full buckets, before and after interleaved Removes.
func TestClosestDistanceClasses(t *testing.T) {
	const k = DefaultK
	rng := rand.New(rand.NewSource(7))
	self := simnet.RandomNodeID(rng)
	rt := NewRoutingTable(self, k)
	add := func(id simnet.NodeID) {
		rt.Add(PeerInfo{ID: id, Server: true})
	}
	for i := 0; i < 2500; i++ {
		add(simnet.RandomNodeID(rng))
	}
	// Random IDs stop near bucket 11; a few hand-placed peers far above
	// leave a run of empty buckets below a non-empty one.
	for _, bit := range []int{40, 40, 41, 90, 255} {
		id := flipBit(self, bit)
		if bit < 248 {
			id[31] ^= byte(rng.Intn(256))
		}
		add(id)
	}
	full := 0
	for cpl := 0; cpl <= 256; cpl++ {
		if len(rt.bucket(cpl)) == k {
			full++
		}
	}
	if full < 4 || rt.top != 255 {
		t.Fatalf("table has %d full buckets and top %d, want several and 255", full, rt.top)
	}

	check := func(stage string) {
		t.Helper()
		stored := rt.All()
		// The highest bucket that random inserts reached holds fewer than
		// k peers: a target there finds class 1 short of n.
		sparse := 0
		for cpl := 0; cpl < 40; cpl++ {
			if l := len(rt.bucket(cpl)); l > 0 && l < k {
				sparse = cpl
			}
		}
		targets := map[string]simnet.NodeID{
			"self":                  self,
			"stored peer":           stored[len(stored)/2].ID,
			"stored peer, top":      stored[len(stored)-1].ID,
			"random":                simnet.RandomNodeID(rng),
			"class 1 empty":         flipBit(self, 30), // buckets 40, 41, 90, 255 are class 2
			"class 1 and 2 empty":   flipBit(self, 200),
			"above top":             flipBit(self, 255),
			"class 1 short of n":    flipBit(flipBit(self, sparse), 250),
			"class 1 exactly one":   flipBit(flipBit(self, 90), 254),
			"full bucket, bucket 0": flipBit(self, 0),
		}
		for name, target := range targets {
			for _, n := range []int{-1, 0, 1, k, rt.Size(), rt.Size() + 5} {
				checkClosest(t, rt, target, n)
			}
			if t.Failed() {
				t.Fatalf("%s: target %q", stage, name)
			}
		}
	}
	check("filled")

	// Remove every third peer, refilling some buckets from fresh IDs as
	// the walk goes, so bucket order differs from insertion order.
	for i, p := range rt.All() {
		if i%3 == 0 {
			rt.Remove(p.ID)
		}
		if i%7 == 0 {
			add(simnet.RandomNodeID(rng))
		}
	}
	check("after interleaved removes")

	// Empty the top buckets: the walk must start lower, not read them.
	for _, cpl := range []int{255, 90} {
		for _, p := range rt.Bucket(cpl) {
			rt.Remove(p.ID)
		}
	}
	if want := highestNonEmpty(t, rt); rt.top != want || want >= 90 {
		t.Fatalf("top = %d after emptying buckets 255 and 90, highest non-empty is %d", rt.top, want)
	}
	check("after emptying the top buckets")

	for _, p := range rt.All() {
		rt.Remove(p.ID)
	}
	if rt.top != -1 || rt.Size() != 0 {
		t.Fatalf("emptied table has top %d, size %d", rt.top, rt.Size())
	}
	if got := rt.Closest(self, k); len(got) != 0 {
		t.Errorf("Closest on an empty table = %v", got)
	}
}

// TestRemoveClearsVacatedSlot: Remove shifts the bucket down and zeroes the
// slot it frees, so the bucket's backing array holds no stale peer.
func TestRemoveClearsVacatedSlot(t *testing.T) {
	self := simnet.NodeID{}
	rt := NewRoutingTable(self, 4)
	var ids []simnet.NodeID
	for i := 1; i <= 3; i++ {
		id := flipBit(self, 0)
		id[31] = byte(i)
		ids = append(ids, id)
		rt.Add(PeerInfo{ID: id, Server: true})
	}
	rt.Remove(ids[0])
	bucket := rt.bucket(0)
	if len(bucket) != 2 || bucket[0].ID != ids[1] || bucket[1].ID != ids[2] {
		t.Fatalf("bucket after Remove = %v", bucket)
	}
	if vacated := bucket[:3][2]; vacated != (PeerInfo{}) {
		t.Errorf("vacated slot still holds %v", vacated)
	}
}

// fuzzID places an ID at common-prefix-length bit from self and XORs tail
// into the bytes after that bit's byte, so fuzz input reaches the deep
// buckets that uniformly random 32-byte IDs never would.
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
// Closest with the brute-force reference. Byte 0 picks the bucket size, byte
// 1 is n, then come 5-byte records of bit, three tail bytes (see fuzzID) and
// an op: the first record is the target (the local ID itself on op 1), every
// later one a peer to add (op 0) or remove (op 1).
func FuzzClosest(f *testing.F) {
	seed := func(k, n byte, recs ...[5]byte) {
		data := []byte{k, n}
		for _, r := range recs {
			data = append(data, r[:]...)
		}
		f.Add(data)
	}
	// Target in a full bucket (k = 2), in an empty bucket below two
	// occupied ones, equal to a stored peer after a Remove, and the local
	// ID itself.
	seed(1, 2, [5]byte{3, 9}, [5]byte{3, 2}, [5]byte{3, 4}, [5]byte{3, 6}, [5]byte{0, 2}, [5]byte{7, 2})
	seed(3, 20, [5]byte{5}, [5]byte{9, 2}, [5]byte{9, 4}, [5]byte{200, 2}, [5]byte{1, 2}, [5]byte{1, 4})
	seed(3, 3, [5]byte{9, 2}, [5]byte{9, 2}, [5]byte{9, 4}, [5]byte{2, 2}, [5]byte{9, 4, 0, 0, 1})
	seed(0, 255, [5]byte{0, 0, 0, 0, 1}, [5]byte{255}, [5]byte{254}, [5]byte{100, 2}, [5]byte{100, 4}, [5]byte{0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		self := simnet.DeriveNodeID([]byte("fuzz-self"))
		rt := NewRoutingTable(self, 1+int(data[0]%4))
		n := int(data[1])
		target := self
		if data[6]&1 == 0 {
			target = fuzzID(self, data[2], data[3:6])
		}
		for rec := data[7:]; len(rec) >= 5; rec = rec[5:] {
			id := fuzzID(self, rec[0], rec[1:4])
			if rec[4]&1 == 0 {
				rt.Add(PeerInfo{ID: id, Server: true})
			} else {
				rt.Remove(id)
			}
		}
		checkClosest(t, rt, target, n)
		if want := highestNonEmpty(t, rt); rt.top != want {
			t.Errorf("top = %d, highest non-empty bucket is %d", rt.top, want)
		}
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
