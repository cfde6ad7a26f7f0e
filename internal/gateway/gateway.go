// Package gateway models public HTTP/IPFS gateways (Sec. VI-B of the paper):
// HTTP-fronted IPFS nodes with an aggressive response cache, whose node IDs
// are normally hidden and whose traffic the paper's probing methodology
// uncovers.
package gateway

import (
	"container/list"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/node"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
)

// CacheCapacity bounds a gateway's response cache in entries.
const CacheCapacity = 4096

// FetchTimeout bounds a gateway's IPFS-side retrievals.
const FetchTimeout = 30 * time.Second

// Config parametrises a gateway.
type Config struct {
	// CacheTTL is the time-to-live after which cached content is
	// re-validated via a fresh Bitswap request — the mechanism that lets
	// monitors observe even heavily cached CIDs (Sec. VI-B3).
	CacheTTL time.Duration
	// Functional models the HTTP frontend state: non-functional gateways
	// fail HTTP requests yet still emit Bitswap traffic (the paper's
	// "misconfiguration on the HTTP end").
	Functional bool
}

func (c Config) withDefaults() Config {
	if c.CacheTTL <= 0 {
		c.CacheTTL = time.Hour
	}
	return c
}

// Status codes reported by Retrieve, mirroring HTTP semantics.
const (
	StatusOK             = 200
	StatusNotFound       = 404
	StatusBadGateway     = 502
	StatusGatewayTimeout = 504
)

// Result is the outcome of one gateway retrieval. The simulated HTTP
// client reads no body, so a result carries none.
type Result struct {
	Status   int
	CacheHit bool
}

// Stats counts gateway activity.
type Stats struct {
	Requests      uint64
	CacheHits     uint64
	CacheMisses   uint64
	Revalidations uint64
	Failures      uint64
}

// cacheEntry records that c was fetched and when; the DAG's blocks stay in
// the gateway node's store.
type cacheEntry struct {
	c         cid.CID
	fetchedAt time.Time
	elem      *list.Element
}

// Gateway is one public gateway: a DNS name plus a (hidden) IPFS node.
type Gateway struct {
	// Name is the public DNS name ("gw3.example.org").
	Name string
	// Operator groups gateways run by the same organisation (the paper's
	// Cloudflare analogue operates 13 nodes).
	Operator string
	// Node is the IPFS side. Its ID is what the probing attack uncovers.
	Node *node.Node

	net   engine.Engine
	cfg   Config
	cache map[cid.CID]*cacheEntry
	lru   *list.List
	stats Stats

	// cacheCap is CacheCapacity; tests shrink it to exercise eviction.
	cacheCap int
}

// New wraps an existing node as a gateway.
func New(net engine.Engine, nd *node.Node, name, operator string, cfg Config) *Gateway {
	return &Gateway{
		Name:     name,
		Operator: operator,
		Node:     nd,
		net:      net,
		cfg:      cfg.withDefaults(),
		cacheCap: CacheCapacity,
		cache:    make(map[cid.CID]*cacheEntry),
		lru:      list.New(),
	}
}

// nodeNow returns the exact virtual time of the event currently running for
// the gateway's node — valid in Retrieve, whose callers run on the control
// shard the gateway is pinned to, and in fetch callbacks, which execute as
// that node's event code.
func (g *Gateway) nodeNow() time.Time { return g.net.EventTime(g.Node.ID) }

// Stats returns a copy of the counters.
func (g *Gateway) Stats() Stats { return g.stats }

// Retrieve serves one HTTP-side request for c, calling done exactly once.
//
// Fresh cache hits answer immediately with no network traffic (invisible to
// monitors). Stale hits answer from cache but trigger an asynchronous
// re-validation request. Misses fetch via Bitswap, which broadcasts the CID
// to all connected peers, including monitors.
//
// trace is the deterministic trace ID minted by the caller; 0 traces
// nothing. A traced retrieval becomes a gateway.request root span, starting
// at the gateway node's current event time, with a zero-duration cache_hit
// or cache_miss marker and — on misses, revalidations and broken frontends —
// a gateway.fetch child wrapping the IPFS-side retrieval.
func (g *Gateway) Retrieve(trace uint64, c cid.CID, done func(Result)) {
	now := g.nodeNow()
	var root *otrace.SpanHandle
	if trace != 0 {
		root = g.net.Tracer().Root(trace, "gateway.request", g.Name, now)
	}
	tc := root.Ctx()
	g.stats.Requests++
	if !g.cfg.Functional {
		// Broken HTTP frontend: the client sees an error, yet the IPFS
		// side still issues the request (observed in the wild, Sec. VI-B2).
		g.stats.Failures++
		g.fetch(tc, true, now, c, func(Result) {})
		root.EndDropped(now)
		done(Result{Status: StatusBadGateway})
		return
	}
	if e, ok := g.cache[c]; ok {
		g.stats.CacheHits++
		g.lru.MoveToFront(e.elem)
		if tc.Sampled() {
			g.net.Tracer().Start(tc, "gateway.cache_hit", g.Name, now).End(now)
		}
		age := g.net.Now().Sub(e.fetchedAt)
		if age > g.cfg.CacheTTL {
			g.stats.Revalidations++
			g.fetch(tc, true, now, c, func(Result) {}) // async revalidation
		}
		root.End(now)
		done(Result{Status: StatusOK, CacheHit: true})
		return
	}
	g.stats.CacheMisses++
	if tc.Sampled() {
		g.net.Tracer().Start(tc, "gateway.cache_miss", g.Name, now).End(now)
	}
	g.fetch(tc, false, now, c, func(r Result) {
		// finish runs as the gateway node's event code.
		root.End(g.nodeNow())
		done(r)
	})
}

// fetch retrieves the DAG rooted at c via the IPFS node with a timeout,
// caching successes.
// async marks fetches whose completion nobody awaits (revalidations, broken
// frontends), which may outlive the request span.
func (g *Gateway) fetch(tc otrace.Ctx, async bool, now time.Time, c cid.CID, done func(Result)) {
	var span *otrace.SpanHandle
	if tc.Sampled() {
		span = g.net.Tracer().Start(tc, "gateway.fetch", g.Name, now)
		if async {
			span.MarkAsync()
		}
	}
	finished := false
	finish := func(r Result) {
		if finished {
			return
		}
		finished = true
		if r.Status == StatusOK {
			span.End(g.nodeNow())
		} else {
			span.EndDropped(g.nodeNow())
		}
		done(r)
	}
	g.net.AfterOn(g.Node.ID, FetchTimeout, func() {
		if !finished {
			g.Node.CancelRequest(c)
			g.stats.Failures++
			finish(Result{Status: StatusGatewayTimeout})
		}
	})
	g.Node.Fetch(span.Ctx(), c, func(ok bool) {
		if finished {
			return
		}
		if !ok {
			g.stats.Failures++
			finish(Result{Status: StatusNotFound})
			return
		}
		g.cachePut(c)
		finish(Result{Status: StatusOK})
	})
}

func (g *Gateway) cachePut(c cid.CID) {
	if e, ok := g.cache[c]; ok {
		e.fetchedAt = g.net.Now()
		g.lru.MoveToFront(e.elem)
		return
	}
	for len(g.cache) >= g.cacheCap {
		back := g.lru.Back()
		if back == nil {
			break
		}
		if victim, ok := back.Value.(*cacheEntry); ok {
			g.lru.Remove(back)
			delete(g.cache, victim.c)
		}
	}
	e := &cacheEntry{c: c, fetchedAt: g.net.Now()}
	e.elem = g.lru.PushFront(e)
	g.cache[c] = e
}

// Registry is the public gateway list (the paper's
// public-gateway-checker analogue): the attack surface enumerated by the
// probing methodology.
type Registry struct {
	gateways []*Gateway
}

// Add lists a gateway.
func (r *Registry) Add(g *Gateway) { r.gateways = append(r.gateways, g) }

// All returns the listed gateways.
func (r *Registry) All() []*Gateway { return r.gateways }

// ByOperator groups listed gateways by operator.
func (r *Registry) ByOperator() map[string][]*Gateway {
	out := make(map[string][]*Gateway)
	for _, g := range r.gateways {
		out[g.Operator] = append(out[g.Operator], g)
	}
	return out
}

// NodeIDs returns the (ground-truth) IPFS node IDs behind all gateways,
// used to validate the probing attack's findings.
func (r *Registry) NodeIDs() map[simnet.NodeID]*Gateway {
	out := make(map[simnet.NodeID]*Gateway, len(r.gateways))
	for _, g := range r.gateways {
		out[g.Node.ID] = g
	}
	return out
}
