package dht

import (
	"time"

	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
)

// CrawlResult summarises one DHT crawl.
type CrawlResult struct {
	// Seen contains every peer proposed by any answering node. It includes
	// stale routing-table entries for nodes that are offline, which is why
	// crawler-based size estimates over-count (Sec. V-C).
	Seen map[simnet.NodeID]PeerInfo
	// Responded contains the servers that answered at least one RPC.
	Responded map[simnet.NodeID]bool
	// Started and Finished bound the crawl in virtual time.
	Started, Finished time.Time
}

// Crawl enumerates the DHT server core the way the prior-work crawler does:
// starting from bootstrap peers, it queries every discovered server with
// FIND_NODE targets that enumerate the server's k-buckets (one target per
// common-prefix-length up to buckets), following referrals until no new
// servers appear.
//
// DHT clients never appear in k-buckets and are invisible to this procedure;
// offline servers may still be proposed by others and are counted in Seen.
// The crawl runs on d's identity (typically a client-mode DHT on a dedicated
// crawler node) and reports through done.
func Crawl(d *DHT, bootstrap []PeerInfo, buckets int, done func(CrawlResult)) {
	if buckets <= 0 {
		buckets = 16
	}
	res := CrawlResult{
		Seen:      make(map[simnet.NodeID]PeerInfo),
		Responded: make(map[simnet.NodeID]bool),
		Started:   d.net.Now(),
	}
	queried := make(map[simnet.NodeRef]bool)
	inflight := 0
	finished := false

	var visit func(p simnet.NodeRef)
	finish := func() {
		if finished {
			return
		}
		finished = true
		res.Finished = d.net.Now()
		done(res)
	}
	maybeFinish := func() {
		if inflight == 0 {
			finish()
		}
	}
	// visit queries server p; every peer an answer proposes is a server.
	visit = func(p simnet.NodeRef) {
		if p == d.ref || queried[p] {
			return
		}
		queried[p] = true
		id := d.net.ID(p)
		// Enumerate p's buckets: flipping bit cpl of p's ID yields a target
		// whose common prefix with p has length exactly cpl.
		for cpl := 0; cpl < buckets; cpl++ {
			target := id
			target[cpl/8] ^= 0x80 >> (cpl % 8)
			inflight++
			d.sendFindNode(otrace.Ctx{}, p, target, func(resp findNodeResp, ok bool) {
				inflight--
				if ok {
					res.Responded[id] = true
					for _, next := range resp.Closer {
						nid := d.net.ID(next)
						if _, seen := res.Seen[nid]; !seen {
							res.Seen[nid] = PeerInfo{ID: nid, Server: true}
						}
						visit(next)
					}
				}
				maybeFinish()
			})
		}
	}
	for _, p := range bootstrap {
		res.Seen[p.ID] = p
		if r, ok := d.net.Ref(p.ID); ok && p.Server {
			visit(r)
		}
	}
	maybeFinish()
}
