package dht

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bitswapmon/internal/simnet"
)

// checkCandidateOps drives a lookup's addCandidates from 5-byte records and,
// after every batch, compares cand with the reference: the peers added so
// far other than self, each once, sorted by full XOR distance, with the
// queried marks set so far. A record is a bit, three tail bytes (see fuzzID;
// peers are placed around target, so IDs from bits of 64 and above share
// target's first 8 bytes) and an op: op%4 is 0 or 1 to add that peer, 2 to
// add self, 3 to mark cand[bit % len(cand)] queried; op&4 ends the batch
// after the record.
func checkCandidateOps(t *testing.T, self, target simnet.NodeID, recs []byte) {
	t.Helper()
	net := simnet.New(t0, 1, nil)
	ref := func(id simnet.NodeID) simnet.NodeRef { return register(net.Table, id) }
	l := &lookup{d: &DHT{net: net, ref: ref(self)}, target: target}
	var batch, added []simnet.NodeRef // added: each peer once, self excluded
	seen := make(map[simnet.NodeRef]bool)
	queried := make(map[simnet.NodeRef]bool)
	t8 := binary.BigEndian.Uint64(target[0:8])
	flush := func() {
		t.Helper()
		l.addCandidates(batch)
		for _, p := range batch {
			if p != l.d.ref && !seen[p] {
				seen[p] = true
				added = append(added, p)
			}
		}
		batch = batch[:0]
		want := slices.Clone(added)
		sortByDistance(net.Table, want, target)
		if len(l.cand) != len(want) {
			t.Fatalf("cand holds %d peers, want %d", len(l.cand), len(want))
		}
		for i, c := range l.cand {
			if c.ref != want[i] || c.queried != queried[c.ref] || c.d != t8^net.Key(c.ref) {
				t.Fatalf("cand[%d] = {d %x %s queried %v}, want %s queried %v",
					i, c.d, net.ID(c.ref), c.queried, net.ID(want[i]), queried[want[i]])
			}
		}
	}
	for ; len(recs) >= 5; recs = recs[5:] {
		bit, tail, op := recs[0], recs[1:4], recs[4]
		switch op % 4 {
		case 0, 1:
			batch = append(batch, ref(fuzzID(target, bit, tail)))
		case 2:
			batch = append(batch, l.d.ref)
		case 3:
			if len(l.cand) > 0 {
				c := &l.cand[int(bit)%len(l.cand)]
				c.queried = true
				queried[c.ref] = true
			}
		}
		if op&4 != 0 {
			flush()
		}
	}
	flush()
}

// TestLookupCandidatesOracle: the sorted candidate list doubles as the seen
// set, so it must equal the reference after random batches that repeat
// peers, include self and crowd peers onto equal 8-byte distance keys.
func TestLookupCandidatesOracle(t *testing.T) {
	// Bits of 64 and above leave the first 8 bytes of the distance zero; 63
	// gives a run of peers with one equal non-zero key.
	bits := []byte{0, 1, 7, 8, 40, 63, 64, 65, 100, 200, 255}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		self := simnet.RandomNodeID(rng)
		target := self
		if rng.Intn(4) > 0 {
			// fuzzID(target, bit, tail) with the same bit and tail is self.
			target = fuzzID(self, bits[rng.Intn(len(bits))], []byte{byte(rng.Intn(3)), byte(rng.Intn(3)), 0})
		}
		recs := make([]byte, 0, 5*300)
		for i := rng.Intn(300); i >= 0; i-- {
			recs = append(recs, bits[rng.Intn(len(bits))],
				byte(rng.Intn(3)), byte(rng.Intn(3)), 0, byte(rng.Intn(8)))
		}
		checkCandidateOps(t, self, target, recs)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzLookupCandidates is TestLookupCandidatesOracle over fuzzed batches. The
// first 5-byte record places the target around self (see fuzzID), or is
// self itself on op 1; the rest are checkCandidateOps records.
func FuzzLookupCandidates(f *testing.F) {
	// Repeats across batches, a queried mark before a repeat, self both as
	// a record and as the fuzzID image of the target record, and a run of
	// equal keys (bit 70) with an insert in its middle.
	f.Add([]byte{9, 1, 0, 0, 0, 3, 0, 0, 0, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 7, 3, 0, 0, 0, 1})
	f.Add([]byte{9, 1, 2, 0, 0, 9, 1, 2, 0, 0, 0, 0, 0, 0, 2, 70, 0, 0, 0, 5})
	f.Add([]byte{0, 0, 0, 0, 1, 70, 1, 0, 0, 0, 70, 3, 0, 0, 0, 70, 2, 0, 0, 4,
		70, 1, 0, 0, 7, 70, 0, 0, 0, 3, 70, 2, 0, 0, 0, 64, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		self := simnet.DeriveNodeID([]byte("fuzz-self"))
		target := self
		if data[4]&1 == 0 {
			target = fuzzID(self, data[0], data[1:4])
		}
		checkCandidateOps(t, self, target, data[5:])
	})
}

// TestHotPathsDoNotAllocate: a server ranking its answer into a buffer with
// room for k peers, and a lookup absorbing an answer of peers it has already
// seen (self among them), allocate nothing.
func TestHotPathsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := simnet.New(t0, 1, nil)
	self := register(net.Table, simnet.RandomNodeID(rng))
	rt := NewRoutingTable(net.Table, self, DefaultK)
	for range 2000 {
		rt.Add(register(net.Table, simnet.RandomNodeID(rng)), true)
	}
	targets := make([]simnet.NodeID, 64)
	for i := range targets {
		targets[i] = simnet.RandomNodeID(rng)
	}
	buf := make([]simnet.NodeRef, 0, DefaultK)
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		buf = rt.AppendClosest(buf[:0], targets[i%len(targets)], DefaultK)
		i++
	}); allocs != 0 || len(buf) != DefaultK {
		t.Errorf("AppendClosest into a cap-k buffer: %v allocations, %d peers", allocs, len(buf))
	}

	l := &lookup{d: &DHT{net: net, ref: self, rt: rt}, target: targets[0]}
	answer := append(rt.AppendClosest(nil, l.target, DefaultK), self)
	l.addCandidates(answer)
	if allocs := testing.AllocsPerRun(200, func() { l.addCandidates(answer) }); allocs != 0 || len(l.cand) != DefaultK {
		t.Errorf("absorbing a seen answer: %v allocations, %d candidates", allocs, len(l.cand))
	}
}
