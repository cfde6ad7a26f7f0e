package trace

import (
	"math/rand"
	"testing"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
)

// TestSymbolsDenseFirstSeen: ids count up from 0 in order of first sight,
// peers and CIDs independently, and a value keeps its id however often and
// in whatever order it comes back.
func TestSymbolsDenseFirstSeen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	peers := make([]simnet.NodeID, 50)
	cids := make([]cid.CID, 70)
	for i := range peers {
		peers[i] = simnet.RandomNodeID(rng)
	}
	for i := range cids {
		cids[i] = cid.Sum(cid.Raw, []byte{byte(i), 0x5a})
	}
	s := NewSymbols()
	peerID := make(map[simnet.NodeID]uint32)
	cidID := make(map[cid.CID]uint32)
	for i := 0; i < 5000; i++ {
		p, c := peers[rng.Intn(len(peers))], cids[rng.Intn(len(cids))]
		// Runs of one value exercise the last-resolved memo, the rest
		// defeat it.
		for rep := 1 + rng.Intn(3); rep > 0; rep-- {
			want, seen := peerID[p]
			if !seen {
				want = uint32(len(peerID))
				peerID[p] = want
			}
			if got := s.Peer(p); got != want {
				t.Fatalf("step %d: Peer = %d, want %d (first seen: %v)", i, got, want, !seen)
			}
			want, seen = cidID[c]
			if !seen {
				want = uint32(len(cidID))
				cidID[c] = want
			}
			if got := s.CID(c); got != want {
				t.Fatalf("step %d: CID = %d, want %d (first seen: %v)", i, got, want, !seen)
			}
		}
	}
	back := s.CIDs()
	if len(back) != len(cidID) {
		t.Fatalf("CIDs holds %d CIDs, %d were numbered", len(back), len(cidID))
	}
	for c, id := range cidID {
		if back[id] != c {
			t.Errorf("CIDs: id %d is %v, was issued for %v", id, back[id], c)
		}
	}
}

// TestSymbolsAlternating: two peers and two CIDs taking turns never repeat
// the value resolved last, so every call goes past the memo to the map.
func TestSymbolsAlternating(t *testing.T) {
	var a, b simnet.NodeID
	a[0], b[31] = 1, 1
	x, y := cid.Sum(cid.Raw, []byte("x")), cid.Sum(cid.DagProtobuf, []byte("y"))
	s := NewSymbols()
	for i := 0; i < 10; i++ {
		if got := s.Peer(a); got != 0 {
			t.Fatalf("round %d: Peer(a) = %d, want 0", i, got)
		}
		if got := s.Peer(b); got != 1 {
			t.Fatalf("round %d: Peer(b) = %d, want 1", i, got)
		}
		if got := s.CID(x); got != 0 {
			t.Fatalf("round %d: CID(x) = %d, want 0", i, got)
		}
		if got := s.CID(y); got != 1 {
			t.Fatalf("round %d: CID(y) = %d, want 1", i, got)
		}
	}
}

// TestSymbolsZeroValues: the zero NodeID and the undefined CID equal the
// memo's initial state; they must still be numbered like any value, whether
// they come first or later.
func TestSymbolsZeroValues(t *testing.T) {
	var zero, p, q simnet.NodeID
	p[3], q[4] = 7, 7
	var undef cid.CID
	c, d := cid.Sum(cid.Raw, []byte("c")), cid.Sum(cid.Raw, []byte("d"))

	first := NewSymbols()
	for i, step := range []struct {
		peer simnet.NodeID
		cid  cid.CID
		want uint32
	}{{zero, undef, 0}, {zero, undef, 0}, {p, c, 1}, {zero, undef, 0}, {q, d, 2}, {p, c, 1}} {
		if got := first.Peer(step.peer); got != step.want {
			t.Errorf("zero first, step %d: Peer = %d, want %d", i, got, step.want)
		}
		if got := first.CID(step.cid); got != step.want {
			t.Errorf("zero first, step %d: CID = %d, want %d", i, got, step.want)
		}
	}

	later := NewSymbols()
	for i, step := range []struct {
		peer simnet.NodeID
		cid  cid.CID
		want uint32
	}{{p, c, 0}, {zero, undef, 1}, {zero, undef, 1}, {q, d, 2}, {zero, undef, 1}, {p, c, 0}} {
		if got := later.Peer(step.peer); got != step.want {
			t.Errorf("zero later, step %d: Peer = %d, want %d", i, got, step.want)
		}
		if got := later.CID(step.cid); got != step.want {
			t.Errorf("zero later, step %d: CID = %d, want %d", i, got, step.want)
		}
	}
}

// TestSummarizerUndefinedAndZero: the summary counts the zero NodeID and
// the undefined CID as one peer and one CID, as the map-keyed sets did.
func TestSummarizerUndefinedAndZero(t *testing.T) {
	z := NewSummarizerWith(NewSymbols())
	for _, e := range []Entry{{}, {}, entry("us", 1, "a", 1, t0), {}} {
		if err := z.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if s := z.Summary(); s.Entries != 4 || s.UniquePeers != 2 || s.UniqueCIDs != 2 {
		t.Errorf("summary = %+v, want 4 entries, 2 peers, 2 CIDs", s)
	}
}

// TestSymbolsRetire: Retire(k) deletes exactly the peers and CIDs last
// resolved before epoch k, however many times they were resolved before,
// and their ids go to the next new values, so the tables stay as long as
// the most values live at once. A retired value is new when it comes back,
// the memo included. Ids still live keep their values.
func TestSymbolsRetire(t *testing.T) {
	peer := func(i int) simnet.NodeID {
		var p simnet.NodeID
		p[0], p[1] = byte(i), byte(i>>8)
		return p
	}
	key := func(i int) cid.CID { return cid.Sum(cid.Raw, []byte{byte(i), byte(i >> 8)}) }
	s := NewSymbols()
	peerIDs := make(map[int]uint32) // live values by index
	cidIDs := make(map[int]uint32)
	last := make(map[int]int64) // epoch each live value was last resolved in
	resolve := func(i int, epoch int64) {
		p, c := s.Peer(peer(i)), s.CID(key(i))
		if id, ok := peerIDs[i]; ok && id != p {
			t.Fatalf("epoch %d: live peer %d moved from id %d to %d", epoch, i, id, p)
		}
		if id, ok := cidIDs[i]; ok && id != c {
			t.Fatalf("epoch %d: live CID %d moved from id %d to %d", epoch, i, id, c)
		}
		peerIDs[i], cidIDs[i], last[i] = p, c, epoch
	}
	rng := rand.New(rand.NewSource(3))
	maxLive := 0
	for epoch := int64(0); epoch < 40; epoch++ {
		s.SetEpoch(epoch)
		// Ten new values an epoch, and some of the last four epochs'
		// values again, twice in a row to go through the memo.
		for i := 0; i < 10; i++ {
			resolve(int(epoch)*10+i, epoch)
			if epoch > 0 {
				j := int(epoch-1-rng.Int63n(min(epoch, 4)))*10 + rng.Intn(10)
				if _, live := last[j]; live {
					resolve(j, epoch)
					resolve(j, epoch)
				}
			}
		}
		maxLive = max(maxLive, len(last))
		before := epoch - 2
		s.Retire(before)
		for i, at := range last {
			if at < before {
				delete(peerIDs, i)
				delete(cidIDs, i)
				delete(last, i)
			}
		}
		if len(s.peers.ids) != len(last) || len(s.cids.ids) != len(last) {
			t.Fatalf("epoch %d: %d peers and %d CIDs numbered, %d live", epoch, len(s.peers.ids), len(s.cids.ids), len(last))
		}
		for i, id := range cidIDs {
			if got := s.CIDs()[id]; got != key(i) {
				t.Fatalf("epoch %d: CIDs()[%d] = %v, want %v", epoch, id, got, key(i))
			}
		}
		if n := len(s.CIDs()); n > maxLive {
			t.Fatalf("epoch %d: the CID table is %d long, at most %d values were live at once", epoch, n, maxLive)
		}
	}
	// A value retired while it was the last resolved is new again.
	s.CID(key(399))
	s.SetEpoch(100)
	s.Retire(100)
	if n := len(s.peers.ids) + len(s.cids.ids); n != 0 {
		t.Fatalf("%d values outlive a retirement of every epoch", n)
	}
	for id, c := range s.CIDs() {
		if c != (cid.CID{}) {
			t.Fatalf("retired id %d still names %v", id, c)
		}
	}
	before := len(s.CIDs())
	if id := s.CID(key(399)); int(id) >= before || s.CIDs()[id] != key(399) || len(s.cids.ids) != 1 {
		t.Fatalf("the last CID resolved, retired and seen again got id %d (table %d long)", id, before)
	}
}
