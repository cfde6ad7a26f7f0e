package node

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"bitswapmon/internal/bitswap"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/merkledag"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

type cluster struct {
	net   *simnet.Network
	nodes []*Node
}

// newCluster builds n started nodes, fully bootstrapped via node 0, and a
// mesh of direct connections so broadcasts reach everyone.
func newCluster(t *testing.T, n int, seed int64, cfg Config) *cluster {
	t.Helper()
	net := simnet.New(t0, seed, simnet.Fixed(5*time.Millisecond))
	rng := net.NewRand("cluster")
	c := &cluster{net: net}
	for i := 0; i < n; i++ {
		id := simnet.RandomNodeID(rng)
		nd, err := New(net, id, fmt.Sprintf("10.1.%d.%d:4001", i/250, i%250), simnet.RegionUS, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, nd)
	}
	boot := []dht.PeerInfo{c.nodes[0].Info()}
	for _, nd := range c.nodes {
		nd.Start(boot)
		net.Run(100 * time.Millisecond)
	}
	// Dense overlay: every node connects to every other (small clusters).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := net.Connect(c.nodes[i].ID, c.nodes[j].ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	net.Run(2 * time.Second)
	return c
}

// holdsDAG fails the test unless fetcher's store holds every block of the
// DAG rooted at root that publisher published, and returns the number of
// distinct blocks in that DAG.
func holdsDAG(t *testing.T, publisher, fetcher *Node, root cid.CID) int {
	t.Helper()
	seen := make(map[cid.CID]bool)
	var walk func(c cid.CID)
	walk = func(c cid.CID) {
		if seen[c] {
			return
		}
		seen[c] = true
		data, ok := publisher.Store.Get(c)
		if !ok {
			t.Fatalf("the publisher lacks block %s", c)
		}
		if !fetcher.Store.Has(c) {
			t.Errorf("the fetcher lacks block %s", c)
		}
		if c.Codec() != cid.DagProtobuf {
			return
		}
		node, err := merkledag.DecodeNode(c.Codec(), data)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range node.Links {
			walk(l.CID)
		}
	}
	walk(root)
	return len(seen)
}

func TestFetchSingleBlockViaBroadcast(t *testing.T) {
	cfg := Config{ChunkSize: 1024}
	c := newCluster(t, 5, 1, cfg)
	content := []byte("hello bitswap")
	root := c.nodes[0].Publish(content)
	c.net.Run(5 * time.Second) // let Provide finish

	okCh := false
	c.nodes[3].Fetch(otrace.Ctx{}, root, func(ok bool) { okCh = ok })
	c.net.Run(30 * time.Second)
	if !okCh {
		t.Fatal("fetch did not complete")
	}
	if n := holdsDAG(t, c.nodes[0], c.nodes[3], root); n != 1 {
		t.Errorf("the DAG has %d blocks, want 1", n)
	}
}

func TestFetchMultiBlockDAG(t *testing.T) {
	cfg := Config{ChunkSize: 64}
	c := newCluster(t, 5, 2, cfg)
	// 640 bytes, 10 chunks, no two of them alike.
	content := make([]byte, 640)
	for i := range content {
		content[i] = byte(i / 7)
	}
	root := c.nodes[0].Publish(content)
	c.net.Run(5 * time.Second)

	done := false
	c.nodes[4].Fetch(otrace.Ctx{}, root, func(ok bool) { done = ok })
	c.net.Run(time.Minute)
	if !done {
		t.Fatal("DAG fetch did not complete")
	}
	if n := holdsDAG(t, c.nodes[0], c.nodes[4], root); n != 11 {
		t.Errorf("the DAG has %d distinct blocks, want 10 leaves and a root", n)
	}
}

func TestFetchViaDHTWhenNotDirectlyConnected(t *testing.T) {
	// Publisher and fetcher not directly connected: the fetcher's broadcast
	// misses, so it must find the provider via the DHT.
	net := simnet.New(t0, 3, simnet.Fixed(5*time.Millisecond))
	rng := net.NewRand("sparse")
	var nodes []*Node
	for i := 0; i < 6; i++ {
		id := simnet.RandomNodeID(rng)
		nd, err := New(net, id, fmt.Sprintf("10.2.0.%d:4001", i), simnet.RegionDE, Config{ChunkSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	boot := []dht.PeerInfo{nodes[0].Info()}
	for _, nd := range nodes {
		nd.Start(boot)
		net.Run(200 * time.Millisecond)
	}
	net.Run(2 * time.Second)

	publisher, fetcher := nodes[1], nodes[5]
	net.Disconnect(publisher.ID, fetcher.ID)

	content := []byte("data findable only through the DHT")
	root := publisher.Publish(content)
	net.Run(10 * time.Second)
	if slices.Contains(net.Peers(publisher.ID), fetcher.ID) {
		net.Disconnect(publisher.ID, fetcher.ID)
	}

	done := false
	fetcher.Fetch(otrace.Ctx{}, root, func(ok bool) { done = ok })
	net.Run(time.Minute)
	if !done {
		t.Fatal("DHT-mediated fetch failed")
	}
	holdsDAG(t, publisher, fetcher, root)
	if fetcher.Bitswap.Stats().DHTSearches == 0 {
		t.Error("fetch succeeded without a DHT search; test premise broken")
	}
	// The provider connection opened during retrieval persists (Fig. 1).
	if !slices.Contains(net.Peers(publisher.ID), fetcher.ID) {
		t.Error("provider connection did not persist")
	}
}

func TestCachingSuppressesSecondBroadcast(t *testing.T) {
	cfg := Config{ChunkSize: 1024}
	c := newCluster(t, 4, 4, cfg)
	root := c.nodes[0].Publish([]byte("cache me"))
	c.net.Run(5 * time.Second)

	fetcher := c.nodes[2]
	done1 := false
	fetcher.Fetch(otrace.Ctx{}, root, func(ok bool) { done1 = ok })
	c.net.Run(30 * time.Second)
	if !done1 {
		t.Fatal("first fetch failed")
	}
	broadcastsAfterFirst := fetcher.Bitswap.Stats().BroadcastsSent

	done2 := false
	fetcher.Fetch(otrace.Ctx{}, root, func(ok bool) { done2 = ok })
	c.net.Run(30 * time.Second)
	if !done2 {
		t.Fatal("second fetch failed")
	}
	if got := fetcher.Bitswap.Stats().BroadcastsSent; got != broadcastsAfterFirst {
		t.Errorf("second fetch broadcast (%d -> %d); cache should have served it", broadcastsAfterFirst, got)
	}
}

func TestFetcherBecomesProvider(t *testing.T) {
	cfg := Config{ChunkSize: 1024}
	c := newCluster(t, 6, 5, cfg)
	root := c.nodes[0].Publish([]byte("re-served content"))
	c.net.Run(5 * time.Second)

	first := c.nodes[1]
	ok1 := false
	first.Fetch(otrace.Ctx{}, root, func(ok bool) { ok1 = ok })
	c.net.Run(30 * time.Second)
	if !ok1 {
		t.Fatal("first fetch failed")
	}

	// Now the original publisher goes offline; the cached copy must serve.
	c.nodes[0].GoOffline()
	c.net.Run(time.Second)

	second := c.nodes[5]
	ok2 := false
	second.Fetch(otrace.Ctx{}, root, func(ok bool) { ok2 = ok })
	c.net.Run(time.Minute)
	if !ok2 {
		t.Fatal("fetch from cached copy failed: fetcher did not become a provider")
	}
}

func TestRebroadcastForUnresolvableCID(t *testing.T) {
	cfg := Config{ChunkSize: 1024}
	c := newCluster(t, 3, 6, cfg)
	ghost := cid.Sum(cid.Raw, []byte("no one has this"))

	fetcher := c.nodes[1]
	fetcher.Request(otrace.Ctx{}, ghost, func(_ []byte, ok bool) {
		if ok {
			t.Error("resolved a nonexistent CID")
		}
	})
	c.net.Run(95 * time.Second) // three 30s rebroadcast intervals
	st := fetcher.Bitswap.Stats()
	if st.Rebroadcasts < 3 {
		t.Errorf("rebroadcasts = %d, want >= 3", st.Rebroadcasts)
	}
	fetcher.CancelRequest(ghost)
	c.net.Run(time.Second)
	st2 := fetcher.Bitswap.Stats()
	c.net.Run(65 * time.Second)
	if got := fetcher.Bitswap.Stats().Rebroadcasts; got != st2.Rebroadcasts {
		t.Errorf("rebroadcasts continued after cancel: %d -> %d", st2.Rebroadcasts, got)
	}
}

func TestWantlistPersistsAndCancels(t *testing.T) {
	cfg := Config{ChunkSize: 1024}
	c := newCluster(t, 3, 7, cfg)
	ghost := cid.Sum(cid.Raw, []byte("wanted forever"))
	fetcher, observerNode := c.nodes[0], c.nodes[1]

	fetcher.Request(otrace.Ctx{}, ghost, func(_ []byte, _ bool) {})
	c.net.Run(5 * time.Second)
	wl := observerNode.Bitswap.WantlistOf(fetcher.ID)
	if wl[ghost] != wire.WantHave {
		t.Fatalf("want not recorded in peer ledger: %v", wl)
	}
	fetcher.CancelRequest(ghost)
	c.net.Run(5 * time.Second)
	if _, still := observerNode.Bitswap.WantlistOf(fetcher.ID)[ghost]; still {
		t.Error("CANCEL did not clear the peer ledger")
	}
}

func TestGiveUpAfter(t *testing.T) {
	cfg := Config{ChunkSize: 1024, Bitswap: DefaultGiveUp(20 * time.Second)}
	c := newCluster(t, 3, 8, cfg)
	ghost := cid.Sum(cid.Raw, []byte("abandon me"))
	done := false
	var gotOK bool
	c.nodes[1].Request(otrace.Ctx{}, ghost, func(_ []byte, ok bool) { done, gotOK = true, ok })
	c.net.Run(time.Minute)
	if !done {
		t.Fatal("GiveUpAfter did not fire")
	}
	if gotOK {
		t.Error("abandoned want reported success")
	}
}

// DefaultGiveUp returns the go-ipfs bitswap config plus a give-up bound.
func DefaultGiveUp(d time.Duration) bitswap.Config {
	cfg := bitswap.Config{SendDontHave: true, Reprovide: true}
	cfg.GiveUpAfter = d
	return cfg
}

func TestChurnOfflineNodeUnreachable(t *testing.T) {
	cfg := Config{ChunkSize: 1024, Bitswap: DefaultGiveUp(15 * time.Second)}
	c := newCluster(t, 4, 10, cfg)
	root := c.nodes[0].Publish([]byte("gone soon"))
	c.net.Run(2 * time.Second)
	c.nodes[0].GoOffline()
	c.net.Run(time.Second)

	done, ok := false, false
	c.nodes[2].Fetch(otrace.Ctx{}, root, func(o bool) { done, ok = true, o })
	c.net.Run(time.Minute)
	if !done {
		t.Fatal("fetch never finished")
	}
	if ok {
		t.Error("fetched content from an offline-only provider")
	}

	// Node rejoins; content becomes available again.
	c.nodes[0].GoOnline([]dht.PeerInfo{c.nodes[1].Info()})
	for i := 1; i < 4; i++ {
		_ = c.net.Connect(c.nodes[0].ID, c.nodes[i].ID)
	}
	c.net.Run(2 * time.Second)
	done2, ok2 := false, false
	c.nodes[3].Fetch(otrace.Ctx{}, root, func(o bool) { done2, ok2 = true, o })
	c.net.Run(time.Minute)
	if !done2 || !ok2 {
		t.Error("fetch after rejoin failed")
	}
}
