package bitswap

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"bitswapmon/internal/blockstore"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// fakeRouter is a canned ProviderRouter.
type fakeRouter struct {
	providers map[dht.Key][]dht.PeerInfo
	provides  []dht.Key
	searches  int
}

func (f *fakeRouter) FindProviders(_ otrace.Ctx, key dht.Key, want int, done func([]dht.PeerInfo)) {
	f.searches++
	done(f.providers[key])
}

func (f *fakeRouter) Provide(key dht.Key, done func()) {
	f.provides = append(f.provides, key)
	if done != nil {
		done()
	}
}

// bsNode wires an engine into simnet for unit tests.
type bsNode struct {
	engine *Engine
	store  *blockstore.Store
}

func (n *bsNode) HandleMessage(from simnet.NodeID, msg any) { n.engine.HandleMessage(from, msg) }
func (n *bsNode) PeerConnected(p simnet.NodeID)             { n.engine.PeerConnected(p) }
func (n *bsNode) PeerDisconnected(p simnet.NodeID)          { n.engine.PeerDisconnected(p) }

func newBSNode(t *testing.T, net *simnet.Network, name string, router ProviderRouter, cfg Config) *bsNode {
	t.Helper()
	id := simnet.DeriveNodeID([]byte(name))
	st := blockstore.New()
	n := &bsNode{store: st}
	if err := net.AddNode(id, name+":4001", simnet.RegionUS, 0, n); err != nil {
		t.Fatal(err)
	}
	n.engine = New(net, id, st, router, cfg)
	return n
}

func (n *bsNode) id() simnet.NodeID { return n.engine.self }

func TestGetFromConnectedPeer(t *testing.T) {
	net := simnet.New(t0, 1, simnet.Fixed(time.Millisecond))
	a := newBSNode(t, net, "a", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	b := newBSNode(t, net, "b", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	if err := net.Connect(a.id(), b.id()); err != nil {
		t.Fatal(err)
	}

	// A DagProtobuf block, whose bytes stores keep and Get returns.
	data := []byte("the block")
	c := cid.Sum(cid.DagProtobuf, data)
	b.store.Put(c, data)

	var got []byte
	a.engine.Get(otrace.Ctx{}, c, func(d []byte, ok bool) {
		if ok {
			got = d
		}
	})
	net.Run(time.Second)
	if string(got) != string(data) {
		t.Fatalf("got %q", got)
	}
	st := a.engine.Stats()
	if st.WantHavesSent == 0 || st.WantBlocksSent == 0 || st.BlocksReceived != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.CancelsSent == 0 {
		t.Error("no CANCEL sent after receipt")
	}
	// The block must now be cached.
	if !a.store.Has(c) {
		t.Error("fetched block not cached")
	}
}

// TestFetchDAGOfSingleBlocks: a DAG walk treats a block of every codec but
// DagProtobuf as a leaf, so fetching a resolvable single-block item of any
// codec succeeds, and the walk stops there.
func TestFetchDAGOfSingleBlocks(t *testing.T) {
	for _, codec := range []cid.Codec{cid.Raw, cid.DagCBOR, cid.GitRaw, cid.EthereumTx, cid.DagJSON} {
		t.Run(codec.String(), func(t *testing.T) {
			net := simnet.New(t0, 1, simnet.Fixed(time.Millisecond))
			a := newBSNode(t, net, "a", &fakeRouter{}, Config{SendDontHave: true})
			b := newBSNode(t, net, "b", &fakeRouter{}, Config{SendDontHave: true})
			if err := net.Connect(a.id(), b.id()); err != nil {
				t.Fatal(err)
			}
			c := cid.Sum(codec, []byte("a single block"))
			b.store.Put(c, []byte("a single block"))

			done, ok := false, false
			a.engine.FetchDAG(otrace.Ctx{}, c, func(o bool) { done, ok = true, o })
			net.Run(time.Second)
			if !done || !ok || !a.store.Has(c) {
				t.Errorf("fetch of a %v block: done=%v ok=%v stored=%v", codec, done, ok, a.store.Has(c))
			}
		})
	}
}

func TestGetCoalescesCallbacks(t *testing.T) {
	net := simnet.New(t0, 2, simnet.Fixed(time.Millisecond))
	a := newBSNode(t, net, "a", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	b := newBSNode(t, net, "b", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	if err := net.Connect(a.id(), b.id()); err != nil {
		t.Fatal(err)
	}
	data := []byte("shared want")
	c := cid.Sum(cid.Raw, data)
	b.store.Put(c, data)

	calls := 0
	a.engine.Get(otrace.Ctx{}, c, func(_ []byte, ok bool) { calls++ })
	a.engine.Get(otrace.Ctx{}, c, func(_ []byte, ok bool) { calls++ })
	net.Run(time.Second)
	if calls != 2 {
		t.Errorf("callbacks = %d, want 2", calls)
	}
	if a.engine.Stats().SessionsCreated != 1 {
		t.Errorf("sessions = %d, want 1 (coalesced)", a.engine.Stats().SessionsCreated)
	}
}

func TestDHTFallbackAfterBroadcastFails(t *testing.T) {
	net := simnet.New(t0, 3, simnet.Fixed(time.Millisecond))
	data := []byte("dht only")
	c := cid.Sum(cid.Raw, data)

	provider := newBSNode(t, net, "provider", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	provider.store.Put(c, data)
	router := &fakeRouter{providers: map[dht.Key][]dht.PeerInfo{
		dht.KeyForCID(c): {{ID: provider.id()}},
	}}
	a := newBSNode(t, net, "a", router, Config{SendDontHave: true, Reprovide: true})
	// No connection between a and provider: broadcast cannot reach it.

	var ok bool
	a.engine.Get(otrace.Ctx{}, c, func(_ []byte, o bool) { ok = o })
	net.Run(10 * time.Second)
	if !ok {
		t.Fatal("DHT fallback did not resolve the want")
	}
	if router.searches != 1 {
		t.Errorf("searches = %d", router.searches)
	}
	if !slices.Contains(net.Peers(a.id()), provider.id()) {
		t.Error("provider connection not opened/persisted")
	}
}

func TestNoDHTSearchWhenSessionFormsQuickly(t *testing.T) {
	net := simnet.New(t0, 4, simnet.Fixed(time.Millisecond))
	router := &fakeRouter{}
	a := newBSNode(t, net, "a", router, Config{SendDontHave: true, Reprovide: true})
	b := newBSNode(t, net, "b", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	if err := net.Connect(a.id(), b.id()); err != nil {
		t.Fatal(err)
	}
	data := []byte("nearby")
	c := cid.Sum(cid.Raw, data)
	b.store.Put(c, data)
	a.engine.Get(otrace.Ctx{}, c, func([]byte, bool) {})
	net.Run(10 * time.Second)
	if router.searches != 0 {
		t.Errorf("DHT searched %d times despite fast HAVE", router.searches)
	}
}

func TestReprovideAnnouncesFetchedRoot(t *testing.T) {
	net := simnet.New(t0, 5, simnet.Fixed(time.Millisecond))
	router := &fakeRouter{}
	cfg := Config{SendDontHave: true, Reprovide: true}
	a := newBSNode(t, net, "a", router, cfg)
	b := newBSNode(t, net, "b", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	if err := net.Connect(a.id(), b.id()); err != nil {
		t.Fatal(err)
	}
	data := []byte("reprovide me")
	c := cid.Sum(cid.Raw, data)
	b.store.Put(c, data)
	a.engine.Get(otrace.Ctx{}, c, func([]byte, bool) {})
	net.Run(time.Second)
	if len(router.provides) != 1 || router.provides[0] != dht.KeyForCID(c) {
		t.Errorf("provides = %v", router.provides)
	}

	// With Reprovide off, no announcement.
	cfg2 := Config{SendDontHave: true, Reprovide: true}
	cfg2.Reprovide = false
	router2 := &fakeRouter{}
	x := newBSNode(t, net, "x", router2, cfg2)
	if err := net.Connect(x.id(), b.id()); err != nil {
		t.Fatal(err)
	}
	x.engine.Get(otrace.Ctx{}, c, func([]byte, bool) {})
	net.Run(time.Second)
	if len(router2.provides) != 0 {
		t.Error("Reprovide=false still announced")
	}
}

// TestTamperedBlockRejected: a block whose bytes do not hash to its CID is
// dropped, and so is a DagProtobuf block that carries no bytes, since a
// store keeps a DagProtobuf node's bytes for the DAG walk.
func TestTamperedBlockRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec cid.Codec
		data  []byte
	}{
		{"raw", cid.Raw, []byte("FORGED")},
		{"dag-pb", cid.DagProtobuf, []byte("FORGED")},
		{"dag-pb without bytes", cid.DagProtobuf, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := simnet.New(t0, 6, simnet.Fixed(time.Millisecond))
			a := newBSNode(t, net, "a", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
			evil := simnet.DeriveNodeID([]byte("evil"))
			// Register a raw handler that answers WANT_HAVE with HAVE and
			// WANT_BLOCK with forged data.
			h := &tamperNode{net: net, id: evil, data: tc.data}
			if err := net.AddNode(evil, "evil:4001", simnet.RegionOther, 0, h); err != nil {
				t.Fatal(err)
			}
			if err := net.Connect(a.id(), evil); err != nil {
				t.Fatal(err)
			}

			c := cid.Sum(tc.codec, []byte("true data"))
			resolved := false
			a.engine.Get(otrace.Ctx{}, c, func(_ []byte, ok bool) { resolved = ok })
			net.Run(5 * time.Second)
			if resolved {
				t.Fatal("tampered block accepted")
			}
			if a.store.Has(c) {
				t.Error("tampered block stored")
			}
		})
	}
}

// tamperNode serves every wanted block with the same forged data.
type tamperNode struct {
	net  *simnet.Network
	id   simnet.NodeID
	data []byte
}

func (n *tamperNode) HandleMessage(from simnet.NodeID, msg any) {
	m, ok := msg.(*wire.Message)
	if !ok {
		return
	}
	var reply wire.Message
	for _, e := range m.Wantlist {
		switch e.Type {
		case wire.WantHave:
			reply.Presences = append(reply.Presences, wire.Presence{Type: wire.Have, CID: e.CID})
		case wire.WantBlock:
			reply.Blocks = append(reply.Blocks, wire.Block{CID: e.CID, Data: n.data})
		}
	}
	if len(reply.Presences)+len(reply.Blocks) > 0 {
		_ = n.net.Send(n.id, from, &reply)
	}
}
func (n *tamperNode) PeerConnected(simnet.NodeID)    {}
func (n *tamperNode) PeerDisconnected(simnet.NodeID) {}

func TestLegacyWantBlockBroadcast(t *testing.T) {
	net := simnet.New(t0, 7, simnet.Fixed(time.Millisecond))
	cfg := Config{SendDontHave: true, Reprovide: true}
	cfg.LegacyWantBlock = true
	a := newBSNode(t, net, "a", &fakeRouter{}, cfg)
	b := newBSNode(t, net, "b", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	if err := net.Connect(a.id(), b.id()); err != nil {
		t.Fatal(err)
	}
	data := []byte("legacy fetch")
	c := cid.Sum(cid.Raw, data)
	b.store.Put(c, data)
	var ok bool
	a.engine.Get(otrace.Ctx{}, c, func(_ []byte, o bool) { ok = o })
	net.Run(time.Second)
	if !ok {
		t.Fatal("legacy fetch failed")
	}
	// The ledger of b must show a WANT_BLOCK entry type... it was
	// cancelled on receipt, so check stats instead: no WANT_HAVEs sent.
	if a.engine.Stats().WantHavesSent != 0 {
		t.Error("legacy node sent WANT_HAVE")
	}

	// Upgrade at runtime.
	a.engine.SetLegacyWantBlock(false)
	data2 := []byte("post upgrade")
	c2 := cid.Sum(cid.Raw, data2)
	b.store.Put(c2, data2)
	a.engine.Get(otrace.Ctx{}, c2, func([]byte, bool) {})
	net.Run(time.Second)
	if a.engine.Stats().WantHavesSent == 0 {
		t.Error("upgraded node still broadcasting WANT_BLOCK")
	}
}

func TestSessionScopedFetchInvisibleToNonMembers(t *testing.T) {
	net := simnet.New(t0, 8, simnet.Fixed(time.Millisecond))
	a := newBSNode(t, net, "a", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	b := newBSNode(t, net, "b", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	mon := newBSNode(t, net, "mon", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true}) // stand-in monitor
	if err := net.Connect(a.id(), b.id()); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(a.id(), mon.id()); err != nil {
		t.Fatal(err)
	}

	rootData := []byte("root block")
	rootCID := cid.Sum(cid.Raw, rootData)
	childData := []byte("child block")
	childCID := cid.Sum(cid.Raw, childData)
	b.store.Put(rootCID, rootData)
	b.store.Put(childCID, childData)

	// Fetch the root via broadcast: the monitor sees it.
	sess := a.engine.Get(otrace.Ctx{}, rootCID, func([]byte, bool) {})
	net.Run(time.Second)
	if _, seen := mon.engine.WantlistOf(a.id())[rootCID]; !seen {
		t.Log("note: want cancelled after resolve clears ledger; checking child only")
	}

	// Fetch the child session-scoped: only b (the session peer) is asked.
	monWantsBefore := len(mon.engine.WantlistOf(a.id()))
	a.engine.GetFromSession(otrace.Ctx{}, sess, childCID, func([]byte, bool) {})
	net.Run(time.Second)
	if !a.store.Has(childCID) {
		t.Fatal("session fetch failed")
	}
	if got := len(mon.engine.WantlistOf(a.id())); got > monWantsBefore {
		t.Error("session-scoped request leaked to a non-session peer")
	}
}

func TestGetFromEmptySessionFails(t *testing.T) {
	net := simnet.New(t0, 9, simnet.Fixed(time.Millisecond))
	a := newBSNode(t, net, "a", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	sess := a.engine.newSession(cid.Sum(cid.Raw, []byte("root")))
	done, ok := false, true
	a.engine.GetFromSession(otrace.Ctx{}, sess, cid.Sum(cid.Raw, []byte("child")), func(_ []byte, o bool) {
		done, ok = true, o
	})
	net.Run(time.Second)
	if !done || ok {
		t.Errorf("empty-session fetch: done=%v ok=%v, want done,!ok", done, ok)
	}
}

// recNode logs every want entry it receives, in delivery order, and answers
// WANT_HAVE with HAVE when haves is set. It never sends a block.
type recNode struct {
	net   *simnet.Network
	id    simnet.NodeID
	haves bool
	log   *[]recEntry
}

type recEntry struct {
	to  simnet.NodeID
	typ wire.EntryType
}

func (n *recNode) HandleMessage(from simnet.NodeID, msg any) {
	m, ok := msg.(*wire.Message)
	if !ok {
		return
	}
	var reply wire.Message
	for _, e := range m.Wantlist {
		*n.log = append(*n.log, recEntry{n.id, e.Type})
		if e.Type == wire.WantHave && n.haves {
			reply.Presences = append(reply.Presences, wire.Presence{Type: wire.Have, CID: e.CID})
		}
	}
	if len(reply.Presences)+len(reply.Blocks) > 0 {
		_ = n.net.Send(n.id, from, &reply)
	}
}
func (n *recNode) PeerConnected(simnet.NodeID)    {}
func (n *recNode) PeerDisconnected(simnet.NodeID) {}

// TestCancelsGoToSortedUnion: WANT_HAVE went to the connected peers and to a
// provider found through the DHT, whose ID sorts among theirs; WANT_BLOCK
// went to that provider and to a late peer that offered HAVE unasked. The
// CANCELs go to the union of both sets, once each, in ID order.
func TestCancelsGoToSortedUnion(t *testing.T) {
	net := simnet.New(t0, 11, simnet.Fixed(time.Millisecond))
	var log []recEntry
	add := func(name string, haves bool) simnet.NodeID {
		id := simnet.DeriveNodeID([]byte(name))
		if err := net.AddNode(id, name+":4001", simnet.RegionUS, 0, &recNode{net, id, haves, &log}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	c := cid.Sum(cid.Raw, []byte("cancel the union"))
	prov := add("provider", true)
	late := add("latecomer", false)
	router := &fakeRouter{providers: map[dht.Key][]dht.PeerInfo{dht.KeyForCID(c): {{ID: prov, Server: true}}}}
	a := newBSNode(t, net, "a", router, Config{SendDontHave: true, Reprovide: true})
	var peers []simnet.NodeID
	for _, name := range []string{"p1", "p2", "p3", "p4", "p5"} {
		p := add(name, false)
		if err := net.Connect(a.id(), p); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	sortIDs(peers)
	for _, p := range []simnet.NodeID{prov, late} {
		if p.Compare(peers[0]) < 0 || p.Compare(peers[len(peers)-1]) > 0 {
			t.Fatalf("%s sorts outside the connected peers %v; rename the test nodes", p, peers)
		}
	}

	a.engine.Get(otrace.Ctx{}, c, func([]byte, bool) {})
	// After the provider search (1 s) the provider answers HAVE and gets
	// WANT_BLOCK; then the late peer connects and offers HAVE unasked.
	aID := a.id()
	net.AfterOn(late, 2*time.Second, func() {
		if err := net.Connect(late, aID); err != nil {
			t.Error(err)
		}
		_ = net.Send(late, aID, &wire.Message{Presences: []wire.Presence{{Type: wire.Have, CID: c}}})
	})
	net.Run(3 * time.Second)
	w := a.engine.wants[c]
	haves := append(slices.Clone(peers), prov)
	sortIDs(haves)
	blocks := []simnet.NodeID{prov, late}
	sortIDs(blocks)
	ids := func(refs []simnet.NodeRef) []simnet.NodeID {
		out := make([]simnet.NodeID, len(refs))
		for i, r := range refs {
			out[i] = net.ID(r)
		}
		return out
	}
	if gotHaves, gotBlocks := ids(w.wantHaveSent), ids(w.wantBlockSent); !slices.Equal(gotHaves, haves) || !slices.Equal(gotBlocks, blocks) {
		t.Fatalf("WANT_HAVE sent to %v, WANT_BLOCK to %v; want %v and %v", gotHaves, gotBlocks, haves, blocks)
	}

	log = log[:0]
	a.engine.Cancel(c)
	net.Run(time.Second)
	union := append(slices.Clone(peers), prov, late)
	sortIDs(union)
	var got []simnet.NodeID
	for _, e := range log {
		if e.typ != wire.Cancel {
			t.Fatalf("%s got %s after the cancel", e.to, e.typ)
		}
		got = append(got, e.to)
	}
	if !slices.Equal(got, union) {
		t.Errorf("CANCEL sent to %v, want %v", got, union)
	}
}

// TestSessionWantResendsWantBlocks: a session want to three silent peers
// asks the first WantBlockFanout of them. Each idle-loop round re-sends
// WANT_BLOCK to those peers only, and giving up CANCELs every peer asked.
func TestSessionWantResendsWantBlocks(t *testing.T) {
	net := simnet.New(t0, 12, simnet.Fixed(time.Millisecond))
	var log []recEntry
	a := newBSNode(t, net, "a", &fakeRouter{}, Config{GiveUpAfter: RebroadcastInterval + 10*time.Second})
	sess := a.engine.newSession(cid.Sum(cid.Raw, []byte("root")))
	for _, name := range []string{"s1", "s2", "s3"} {
		id := simnet.DeriveNodeID([]byte(name))
		if err := net.AddNode(id, name+":4001", simnet.RegionUS, 0, &recNode{net, id, false, &log}); err != nil {
			t.Fatal(err)
		}
		if err := net.Connect(a.id(), id); err != nil {
			t.Fatal(err)
		}
		sess.peers[id] = true
	}
	peers := sess.Peers()
	asked, silent := peers[:WantBlockFanout], peers[WantBlockFanout]
	count := func(typ wire.EntryType) map[simnet.NodeID]int {
		n := make(map[simnet.NodeID]int)
		for _, e := range log {
			if e.typ == typ {
				n[e.to]++
			}
		}
		return n
	}

	a.engine.GetFromSession(otrace.Ctx{}, sess, cid.Sum(cid.Raw, []byte("child")), func([]byte, bool) {})
	net.Run(RebroadcastInterval + time.Second)
	blocks := count(wire.WantBlock)
	for _, p := range asked {
		if blocks[p] != 2 {
			t.Errorf("%s got %d WANT_BLOCKs after one rebroadcast, want 2", p, blocks[p])
		}
	}
	if blocks[silent] != 0 {
		t.Errorf("%s beyond the fanout got %d WANT_BLOCKs", silent, blocks[silent])
	}

	net.Run(10 * time.Second) // past GiveUpAfter
	cancels := count(wire.Cancel)
	for _, p := range asked {
		if cancels[p] != 1 {
			t.Errorf("%s got %d CANCELs at give-up, want 1", p, cancels[p])
		}
	}
	if cancels[silent] != 0 {
		t.Errorf("%s was never asked but got %d CANCELs", silent, cancels[silent])
	}
}

// TestWantlistLedgerClearedOnDisconnect: requesters a and c want one CID at
// b. A CANCEL from c clears only c's entry; disconnecting a clears only a's.
func TestWantlistLedgerClearedOnDisconnect(t *testing.T) {
	net := simnet.New(t0, 10, simnet.Fixed(time.Millisecond))
	a := newBSNode(t, net, "a", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	b := newBSNode(t, net, "b", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	c := newBSNode(t, net, "c", &fakeRouter{}, Config{SendDontHave: true, Reprovide: true})
	for _, r := range []*bsNode{a, c} {
		if err := net.Connect(r.id(), b.id()); err != nil {
			t.Fatal(err)
		}
	}
	ghost := cid.Sum(cid.Raw, []byte("never found"))
	a.engine.Get(otrace.Ctx{}, ghost, func([]byte, bool) {})
	c.engine.Get(otrace.Ctx{}, ghost, func([]byte, bool) {})
	net.Run(time.Second)
	if len(b.engine.WantlistOf(a.id())) != 1 || len(b.engine.WantlistOf(c.id())) != 1 {
		t.Fatal("wants not recorded")
	}
	c.engine.Cancel(ghost)
	net.Run(time.Second)
	if _, ok := b.engine.WantlistOf(c.id())[ghost]; ok {
		t.Error("CANCEL left c's entry")
	}
	if _, ok := b.engine.WantlistOf(a.id())[ghost]; !ok {
		t.Error("c's CANCEL cleared a's entry")
	}
	c.engine.Get(otrace.Ctx{}, ghost, func([]byte, bool) {})
	net.Run(time.Second)
	net.Disconnect(a.id(), b.id())
	if len(b.engine.WantlistOf(a.id())) != 0 {
		t.Error("ledger survived disconnect")
	}
	if _, ok := b.engine.WantlistOf(c.id())[ghost]; !ok {
		t.Error("disconnecting a cleared c's entry")
	}
}

// TestHotPathsDoNotAllocate: with the event heap and the ledgers grown, a
// broadcast to 200 peers as broadcastWantHave makes it, message built, with
// its deliveries, and a WANT_HAVE then CANCEL round at a peer allocate
// nothing.
func TestHotPathsDoNotAllocate(t *testing.T) {
	net := simnet.New(t0, 13, simnet.Fixed(time.Millisecond))
	a := newBSNode(t, net, "a", &fakeRouter{}, Config{})
	for i := range 200 {
		p := newBSNode(t, net, fmt.Sprintf("peer-%d", i), &fakeRouter{}, Config{})
		if err := net.Connect(a.id(), p.id()); err != nil {
			t.Fatal(err)
		}
	}
	c := cid.Sum(cid.Raw, []byte("hot"))
	w := &wantState{c: c}
	msg := a.engine.wantHaveMsg(w)
	if allocs := testing.AllocsPerRun(20, func() {
		w.wantHaveSent = w.wantHaveSent[:0]
		a.engine.net.SendEachRef(w.tc, "send.want_have", a.engine.ref, msg, func(p simnet.NodeRef) {
			w.wantHaveSent = append(w.wantHaveSent, p)
		})
		net.Run(time.Second)
	}); allocs != 0 || len(w.wantHaveSent) != 200 {
		t.Errorf("broadcast: %v allocations, %d peers", allocs, len(w.wantHaveSent))
	}

	want := &wire.Message{Wantlist: []wire.Entry{{Type: wire.WantHave, CID: c}}}
	cancel := &wire.Message{Wantlist: []wire.Entry{{Type: wire.Cancel, CID: c}}}
	peer := net.ID(w.wantHaveSent[0])
	if allocs := testing.AllocsPerRun(200, func() {
		a.engine.HandleMessage(peer, want)
		a.engine.HandleMessage(peer, cancel)
	}); allocs != 0 || len(a.engine.ledger) != 0 {
		t.Errorf("WANT_HAVE + CANCEL round: %v allocations, %d ledger entries left", allocs, len(a.engine.ledger))
	}
}
