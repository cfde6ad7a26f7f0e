package gateway

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/blockstore"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/merkledag"
	"bitswapmon/internal/node"
	"bitswapmon/internal/simnet"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

type world struct {
	net   *simnet.Network
	nodes []*node.Node
	gw    *Gateway
}

// cacheHitRatio returns hits/(hits+misses), the figure Cloudflare quotes
// as 97% for its gateway.
func cacheHitRatio(g *Gateway) float64 {
	st := g.Stats()
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

func build(t *testing.T, gwCfg Config) *world {
	t.Helper()
	net := simnet.New(t0, 1, simnet.Fixed(5*time.Millisecond))
	rng := net.NewRand("gwtest")
	w := &world{net: net}
	for i := 0; i < 5; i++ {
		id := simnet.RandomNodeID(rng)
		nd, err := node.New(net, id, fmt.Sprintf("10.3.0.%d:4001", i), simnet.RegionUS, node.Config{ChunkSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		w.nodes = append(w.nodes, nd)
	}
	boot := []dht.PeerInfo{w.nodes[0].Info()}
	for _, nd := range w.nodes {
		nd.Start(boot)
		net.Run(100 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			_ = net.Connect(w.nodes[i].ID, w.nodes[j].ID)
		}
	}
	w.gw = New(net, w.nodes[4], "gw0.example.org", "example", gwCfg)
	net.Run(time.Second)
	return w
}

// holdsDAG fails the test unless the fetcher's store holds every block of
// the DAG rooted at root that the publisher's store holds.
func holdsDAG(t *testing.T, publisher, fetcher *blockstore.Store, root cid.CID) {
	t.Helper()
	var walk func(c cid.CID)
	walk = func(c cid.CID) {
		data, ok := publisher.Get(c)
		if !ok {
			t.Fatalf("the publisher lacks block %s", c)
		}
		if !fetcher.Has(c) {
			t.Errorf("the gateway node's store lacks block %s", c)
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
}

func TestGatewayMissThenHit(t *testing.T) {
	w := build(t, Config{Functional: true, CacheTTL: time.Hour})
	// 3,000 bytes at the 1,024-byte chunk size: three leaves under a root.
	root := w.nodes[0].Publish([]byte(strings.Repeat("gateway content", 200)))
	w.net.Run(5 * time.Second)

	var r1 Result
	w.gw.Retrieve(0, root, func(r Result) { r1 = r })
	w.net.Run(30 * time.Second)
	if r1.Status != StatusOK || r1.CacheHit {
		t.Fatalf("first retrieve: %+v", r1)
	}
	holdsDAG(t, w.nodes[0].Store, w.gw.Node.Store, root)

	var r2 Result
	w.gw.Retrieve(0, root, func(r Result) { r2 = r })
	// No Run needed: cache hits answer synchronously.
	if r2.Status != StatusOK || !r2.CacheHit {
		t.Fatalf("second retrieve: %+v", r2)
	}
	if got := cacheHitRatio(w.gw); got != 0.5 {
		t.Errorf("hit ratio = %v", got)
	}
}

func TestGatewayRevalidatesAfterTTL(t *testing.T) {
	w := build(t, Config{Functional: true, CacheTTL: time.Minute})
	root := w.nodes[0].Publish([]byte("short ttl"))
	w.net.Run(5 * time.Second)

	w.gw.Retrieve(0, root, func(Result) {})
	w.net.Run(30 * time.Second)

	// Age the cache entry beyond the TTL.
	w.net.Run(2 * time.Minute)
	var r Result
	w.gw.Retrieve(0, root, func(res Result) { r = res })
	if r.Status != StatusOK || !r.CacheHit {
		t.Fatalf("stale hit: %+v", r)
	}
	w.net.Run(10 * time.Second)
	if w.gw.Stats().Revalidations != 1 {
		t.Errorf("revalidations = %d, want 1", w.gw.Stats().Revalidations)
	}
}

func TestGatewayNotFound(t *testing.T) {
	w := build(t, Config{Functional: true})
	ghost := cid.Sum(cid.Raw, []byte("nothing here"))
	var r Result
	done := false
	w.gw.Retrieve(0, ghost, func(res Result) { r, done = res, true })
	w.net.Run(2 * time.Minute)
	if !done {
		t.Fatal("retrieve never finished")
	}
	if r.Status != StatusGatewayTimeout && r.Status != StatusNotFound {
		t.Errorf("status = %d", r.Status)
	}
}

func TestNonFunctionalGatewayStillEmitsBitswap(t *testing.T) {
	w := build(t, Config{Functional: false})
	ghost := cid.Sum(cid.Raw, []byte("probe block"))
	var r Result
	w.gw.Retrieve(0, ghost, func(res Result) { r = res })
	if r.Status != StatusBadGateway {
		t.Fatalf("status = %d, want 502", r.Status)
	}
	w.net.Run(5 * time.Second)
	// The IPFS side must still have broadcast the request: other nodes see
	// the want in their ledgers.
	seen := false
	for _, nd := range w.nodes[:4] {
		if _, ok := nd.Bitswap.WantlistOf(w.gw.Node.ID)[ghost]; ok {
			seen = true
		}
	}
	if !seen {
		t.Error("non-functional gateway did not emit Bitswap request")
	}
}

func TestCacheEviction(t *testing.T) {
	w := build(t, Config{Functional: true})
	w.gw.cacheCap = 2
	var roots []cid.CID
	for i := 0; i < 3; i++ {
		root := w.nodes[i].Publish([]byte(fmt.Sprintf("content %d", i)))
		roots = append(roots, root)
	}
	w.net.Run(5 * time.Second)
	for _, root := range roots {
		w.gw.Retrieve(0, root, func(Result) {})
		w.net.Run(30 * time.Second)
	}
	// Capacity 2: the oldest entry must have been evicted.
	if len(w.gw.cache) != 2 {
		t.Errorf("cache size = %d, want 2", len(w.gw.cache))
	}
	if _, ok := w.gw.cache[roots[0]]; ok {
		t.Error("LRU entry not evicted")
	}
}

func TestRegistry(t *testing.T) {
	w := build(t, Config{Functional: true})
	var reg Registry
	reg.Add(w.gw)
	gw2 := New(w.net, w.nodes[3], "gw1.example.org", "example", Config{Functional: true})
	reg.Add(gw2)
	gw3 := New(w.net, w.nodes[2], "mg0.megagate.net", "megagate", Config{Functional: true})
	reg.Add(gw3)

	if len(reg.All()) != 3 {
		t.Error("registry listing wrong")
	}
	ops := reg.ByOperator()
	if len(ops["example"]) != 2 || len(ops["megagate"]) != 1 {
		t.Errorf("operators: %v", ops)
	}
	ids := reg.NodeIDs()
	if ids[w.gw.Node.ID] != w.gw {
		t.Error("NodeIDs mapping wrong")
	}
}
