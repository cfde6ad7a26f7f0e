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
	back := make(map[uint32]cid.CID)
	s.EachCID(func(id uint32, c cid.CID) {
		if prev, dup := back[id]; dup {
			t.Errorf("EachCID yields id %d twice (%v, %v)", id, prev, c)
		}
		back[id] = c
	})
	if len(back) != len(cidID) {
		t.Fatalf("EachCID yields %d CIDs, %d were numbered", len(back), len(cidID))
	}
	for c, id := range cidID {
		if back[id] != c {
			t.Errorf("EachCID: id %d is %v, was issued for %v", id, back[id], c)
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

// TestSymbolsTranslate: a translation maps every id of the source to the id
// the target gives the same value, numbering values new to the target, and
// it is rebuilt once the source has numbered more.
func TestSymbolsTranslate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	peers := make([]simnet.NodeID, 40)
	for i := range peers {
		peers[i] = simnet.RandomNodeID(rng)
	}
	cids := make([]cid.CID, 40)
	for i := range cids {
		cids[i] = cid.Sum(cid.Raw, []byte{byte(i), 0xa5})
	}
	from, to := NewSymbols(), NewSymbols()
	for i := 0; i < 30; i++ {
		from.Peer(peers[i])
		from.CID(cids[i])
		to.Peer(peers[len(peers)-1-i]) // the same values in another order
		to.CID(cids[len(cids)-1-i])
	}
	numbered := make([]int, 30)
	for i := range numbered {
		numbered[i] = i
	}
	check := func() {
		t.Helper()
		tr := to.Translate(from)
		if n := len(numbered); len(tr.Peers) != n || len(tr.CIDs) != n {
			t.Fatalf("translation covers %d peers and %d CIDs, the source numbers %d", len(tr.Peers), len(tr.CIDs), n)
		}
		for _, i := range numbered {
			if got, want := tr.Peers[from.Peer(peers[i])], to.Peer(peers[i]); got != want {
				t.Fatalf("peer %d: translated to %d, the target's id is %d", i, got, want)
			}
			if got, want := tr.CIDs[from.CID(cids[i])], to.CID(cids[i]); got != want {
				t.Fatalf("CID %d: translated to %d, the target's id is %d", i, got, want)
			}
		}
	}
	check()
	if to.Translate(from) != to.Translate(from) {
		t.Fatal("a repeated translation is built again")
	}
	from.Peer(peers[35])
	from.CID(cids[35])
	numbered = append(numbered, 35)
	check()
}
