package dht

import (
	"fmt"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// harness wires a DHT into a simnet node.
type harness struct{ dht *DHT }

// addDHT registers a node with id on net and builds its DHT.
func addDHT(t *testing.T, net *simnet.Network, id simnet.NodeID, addr string, mode Mode) *DHT {
	t.Helper()
	h := &harness{}
	if err := net.AddNode(id, addr, simnet.RegionUS, 0, h); err != nil {
		t.Fatal(err)
	}
	h.dht = New(net, PeerInfo{ID: id}, mode)
	return h.dht
}

// register returns id's ref in tab, registering id on first use.
func register(tab *simnet.Table, id simnet.NodeID) simnet.NodeRef {
	if r, ok := tab.Ref(id); ok {
		return r
	}
	if err := tab.AddNode(id, "", simnet.RegionUS, 0, nil); err != nil {
		panic(err)
	}
	r, _ := tab.Ref(id)
	return r
}

// newTable returns a routing table with bucket size k for self, over a
// fresh node table.
func newTable(self simnet.NodeID, k int) *RoutingTable {
	tab := simnet.NewTable(nil, nil)
	return NewRoutingTable(tab, register(tab, self), k)
}

// add registers id in rt's node table and adds it as a server.
func add(rt *RoutingTable, id simnet.NodeID) bool {
	return rt.Add(register(rt.tab, id), true)
}

// ids returns the IDs refs stand for.
func ids(tab *simnet.Table, refs []simnet.NodeRef) []simnet.NodeID {
	out := make([]simnet.NodeID, len(refs))
	for i, r := range refs {
		out[i] = tab.ID(r)
	}
	return out
}

func (h *harness) HandleMessage(from simnet.NodeID, msg any) {
	h.dht.HandleMessage(from, msg)
}
func (h *harness) PeerConnected(simnet.NodeID)    {}
func (h *harness) PeerDisconnected(simnet.NodeID) {}

type testNet struct {
	net     *simnet.Network
	servers []*DHT
	clients []*DHT
}

// buildNet creates servers+clients, all bootstrapped against servers[0].
func buildNet(t *testing.T, nServers, nClients int, seed int64) *testNet {
	t.Helper()
	net := simnet.New(t0, seed, simnet.Fixed(5*time.Millisecond))
	rng := net.NewRand("ids")
	tn := &testNet{net: net}
	mk := func(i int, mode Mode) *DHT {
		return addDHT(t, net, simnet.RandomNodeID(rng), fmt.Sprintf("10.0.%d.%d:4001", i/250, i%250), mode)
	}
	for i := 0; i < nServers; i++ {
		tn.servers = append(tn.servers, mk(i, ModeServer))
	}
	for i := 0; i < nClients; i++ {
		tn.clients = append(tn.clients, mk(nServers+i, ModeClient))
	}
	boot := []PeerInfo{tn.servers[0].Self()}
	for _, d := range tn.servers[1:] {
		d.Bootstrap(boot, nil)
		net.Run(200 * time.Millisecond)
	}
	for _, d := range tn.clients {
		d.Bootstrap(boot, nil)
		net.Run(200 * time.Millisecond)
	}
	net.Run(5 * time.Second)
	return tn
}

func TestRoutingTableBasics(t *testing.T) {
	rt := newTable(simnet.DeriveNodeID([]byte("self")), 2)
	p1 := register(rt.tab, simnet.DeriveNodeID([]byte("p1")))
	client := register(rt.tab, simnet.DeriveNodeID([]byte("c")))
	if contains(rt, p1) {
		t.Error("empty table contains a peer")
	}
	if !rt.Add(p1, true) {
		t.Error("Add new peer = false")
	}
	if rt.Add(p1, true) {
		t.Error("Add duplicate = true")
	}
	if rt.Add(client, false) {
		t.Error("client entered k-bucket")
	}
	if rt.Add(rt.self, true) {
		t.Error("self entered k-bucket")
	}
	if !contains(rt, p1) || contains(rt, client) || rt.size != 1 {
		t.Error("routing table state wrong")
	}
}

func TestRoutingTableBucketCapacity(t *testing.T) {
	rt := newTable(simnet.NodeID{}, 2) // all zeros: bucket index = leading zeros of peer ID
	// Peers with first bit set share bucket 0.
	added := 0
	for i := 0; i < 10; i++ {
		var id simnet.NodeID
		id[0] = 0x80
		id[31] = byte(i + 1)
		if add(rt, id) {
			added++
		}
	}
	if added != 2 {
		t.Errorf("bucket accepted %d peers, want k=2", added)
	}
}

func TestClosestOrdering(t *testing.T) {
	rt := newTable(simnet.NodeID{}, 20)
	var stored []simnet.NodeID
	for i := 1; i <= 8; i++ {
		var id simnet.NodeID
		id[31] = byte(i)
		stored = append(stored, id)
		add(rt, id)
	}
	var target simnet.NodeID
	target[31] = 6
	// AppendClosest appends after what dst already holds.
	prefix := register(rt.tab, simnet.DeriveNodeID([]byte("prefix")))
	got := rt.AppendClosest([]simnet.NodeRef{prefix}, target, 3)
	if len(got) != 4 || got[0] != prefix {
		t.Fatalf("AppendClosest(prefix, 6, 3) = %v", got)
	}
	closest := ids(rt.tab, got[1:])
	// XOR distance from 6: 6^6=0, 6^7=1, 6^4=2, 6^5=3...
	if closest[0] != stored[5] || closest[1] != stored[6] || closest[2] != stored[3] {
		t.Errorf("XOR ordering wrong: got %v", closest)
	}
}

func TestProviderStoreExpiry(t *testing.T) {
	s := NewProviderStore(time.Hour)
	key := KeyForCID(cid.Sum(cid.Raw, []byte("data")))
	p := PeerInfo{ID: simnet.DeriveNodeID([]byte("prov"))}
	s.Add(key, p, t0)
	if got := s.Get(key, t0.Add(30*time.Minute)); len(got) != 1 {
		t.Fatalf("Get before expiry = %d", len(got))
	}
	if got := s.Get(key, t0.Add(2*time.Hour)); len(got) != 0 {
		t.Fatalf("Get after expiry = %d", len(got))
	}
	if len(s.records) != 0 {
		t.Error("expired key not cleaned up")
	}
}

func TestLookupFindsClosestNodes(t *testing.T) {
	tn := buildNet(t, 40, 0, 1)
	target := simnet.DeriveNodeID([]byte("lookup-target"))

	// Ground truth: sort all server IDs by distance to target.
	all := make([]PeerInfo, 0, len(tn.servers))
	for _, d := range tn.servers {
		all = append(all, d.Self())
	}
	SortByDistance(all, target)

	var got []simnet.NodeRef
	tn.servers[5].FindClosest(target, func(peers []simnet.NodeRef) { got = peers })
	tn.net.Run(30 * time.Second)
	if got == nil {
		t.Fatal("lookup never completed")
	}
	if len(got) == 0 {
		t.Fatal("lookup returned nothing")
	}
	// The closest node overall must be found.
	if first := tn.net.ID(got[0]); first != all[0].ID && first != all[1].ID {
		t.Errorf("lookup missed the closest nodes: got %s, want %s", first, all[0].ID)
	}
}

func TestProvideAndFindProviders(t *testing.T) {
	tn := buildNet(t, 30, 5, 2)
	key := KeyForCID(cid.Sum(cid.Raw, []byte("published data")))

	provider := tn.clients[0]
	published := false
	provider.Provide(key, func() { published = true })
	tn.net.Run(30 * time.Second)
	if !published {
		t.Fatal("Provide never completed")
	}

	var found []PeerInfo
	tn.clients[1].FindProviders(otrace.Ctx{}, key, 1, func(provs []PeerInfo) { found = provs })
	tn.net.Run(30 * time.Second)
	if len(found) == 0 {
		t.Fatal("providers not found")
	}
	if found[0].ID != provider.Self().ID {
		t.Errorf("wrong provider: got %s want %s", found[0].ID, provider.Self().ID)
	}
}

func TestFindProvidersMissingKey(t *testing.T) {
	tn := buildNet(t, 20, 1, 3)
	key := KeyForCID(cid.Sum(cid.Raw, []byte("never published")))
	done := false
	tn.clients[0].FindProviders(otrace.Ctx{}, key, 1, func(provs []PeerInfo) {
		done = true
		if len(provs) != 0 {
			t.Errorf("found %d providers for unpublished key", len(provs))
		}
	})
	tn.net.Run(30 * time.Second)
	if !done {
		t.Fatal("lookup never completed")
	}
}

func TestClientsDoNotAnswerRPCs(t *testing.T) {
	tn := buildNet(t, 10, 2, 4)
	client := tn.clients[0]
	// Send a find-node directly to a client: it must not reply, so the RPC
	// times out.
	responded := false
	timedOut := false
	asker := tn.servers[3]
	asker.sendFindNode(otrace.Ctx{}, client.ref, client.Self().ID, func(_ findNodeResp, ok bool) {
		responded = ok
		timedOut = !ok
	})
	tn.net.Run(time.Minute)
	if responded || !timedOut {
		t.Error("client answered a DHT RPC")
	}
}

func TestClientsAbsentFromRoutingTables(t *testing.T) {
	tn := buildNet(t, 20, 10, 5)
	for _, srv := range tn.servers {
		for _, cl := range tn.clients {
			if contains(srv.rt, cl.ref) {
				t.Fatalf("client %s found in server %s routing table", cl.Self().ID, srv.Self().ID)
			}
		}
	}
}

func TestCrawlSeesServersNotClients(t *testing.T) {
	tn := buildNet(t, 30, 10, 6)

	// Dedicated crawler node, client mode.
	crawler := addDHT(t, tn.net, simnet.DeriveNodeID([]byte("crawler")), "9.9.9.9:4001", ModeClient)

	var res CrawlResult
	gotRes := false
	Crawl(crawler, []PeerInfo{tn.servers[0].Self()}, 16, func(r CrawlResult) {
		res = r
		gotRes = true
	})
	tn.net.Run(5 * time.Minute)
	if !gotRes {
		t.Fatal("crawl never completed")
	}
	if len(res.Responded) < len(tn.servers)*8/10 {
		t.Errorf("crawl responded=%d, want most of %d servers", len(res.Responded), len(tn.servers))
	}
	for _, cl := range tn.clients {
		if _, ok := res.Seen[cl.Self().ID]; ok {
			t.Errorf("crawl saw client %s", cl.Self().ID)
		}
	}
}

func TestCrawlCountsOfflineServers(t *testing.T) {
	tn := buildNet(t, 25, 0, 7)
	// Take a server offline after its entries have spread.
	victim := tn.servers[10]
	if err := tn.net.SetOnline(victim.Self().ID, false); err != nil {
		t.Fatal(err)
	}

	crawler := addDHT(t, tn.net, simnet.DeriveNodeID([]byte("crawler2")), "9.9.9.8:4001", ModeClient)
	var res CrawlResult
	Crawl(crawler, []PeerInfo{tn.servers[0].Self()}, 16, func(r CrawlResult) { res = r })
	tn.net.Run(10 * time.Minute)
	if res.Seen == nil {
		t.Fatal("crawl never completed")
	}
	if _, ok := res.Seen[victim.Self().ID]; !ok {
		t.Error("offline server not proposed by peers (stale entries should persist)")
	}
	if res.Responded[victim.Self().ID] {
		t.Error("offline server responded")
	}
}

func TestKeyForCIDDeterministic(t *testing.T) {
	c := cid.Sum(cid.Raw, []byte("x"))
	if KeyForCID(c) != KeyForCID(c) {
		t.Error("KeyForCID not deterministic")
	}
	if KeyForCID(c) == KeyForCID(cid.Sum(cid.Raw, []byte("y"))) {
		t.Error("distinct CIDs share a key")
	}
}

func TestModeString(t *testing.T) {
	if ModeServer.String() != "server" || ModeClient.String() != "client" || Mode(0).String() != "unknown" {
		t.Error("mode strings wrong")
	}
}
