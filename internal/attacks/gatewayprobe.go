package attacks

import (
	"encoding/binary"
	"math/rand"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/gateway"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
)

// ProbeResult records the outcome of probing one public gateway
// (Sec. VI-B).
type ProbeResult struct {
	// GatewayName is the probed DNS name.
	GatewayName string
	// HTTPStatus is the HTTP-side answer.
	HTTPStatus int
	// HTTPFunctional reports whether the HTTP side succeeded.
	HTTPFunctional bool
	// DiscoveredIDs are the IPFS node IDs observed requesting the probe
	// CID — the normally hidden IPFS side of the gateway. Broken-HTTP
	// gateways can still yield IDs here ("misconfiguration on the HTTP
	// end").
	DiscoveredIDs []simnet.NodeID
	// DiscoveredAddrs are the transport addresses seen with those IDs,
	// for IP/ID cross-referencing.
	DiscoveredAddrs map[simnet.NodeID]string
	// ProbeCID is the unique random content identifier used.
	ProbeCID cid.CID
}

// GatewayProber drives the Sec. VI-B methodology: generate a unique random
// block, make the monitors providers for it, request it through the
// gateway's HTTP side, and watch the monitors' traces for the Bitswap
// request that betrays the gateway's node ID.
type GatewayProber struct {
	net      engine.Engine
	monitors []*monitor.Monitor
	rng      *rand.Rand
	// WaitFor is how long to watch traces after the HTTP request
	// (default 30 s).
	WaitFor time.Duration

	// pending collects sightings per in-flight probe CID, fed by live
	// monitor taps — probing works whatever sink the monitors stream to
	// (memory, segment store, ...), since it never reads traces back.
	pending map[string]*probeSightings
}

// probeSightings accumulates requester observations for one probe CID.
type probeSightings struct {
	ids   []simnet.NodeID
	addrs map[simnet.NodeID]string
}

// NewGatewayProber builds a prober over the given monitors.
func NewGatewayProber(net engine.Engine, monitors []*monitor.Monitor, rng *rand.Rand) *GatewayProber {
	p := &GatewayProber{
		net:      net,
		monitors: monitors,
		rng:      rng,
		WaitFor:  30 * time.Second,
		pending:  make(map[string]*probeSightings),
	}
	for _, m := range monitors {
		m.OnEntry(p.observe)
	}
	return p
}

// observe records requesters of in-flight probe CIDs.
func (p *GatewayProber) observe(e trace.Entry) {
	ps, ok := p.pending[e.CID.Key()]
	if !ok || !e.IsRequest() {
		return
	}
	if _, seen := ps.addrs[e.NodeID]; !seen {
		ps.ids = append(ps.ids, e.NodeID)
		ps.addrs[e.NodeID] = e.Addr
	}
}

// randomBlock generates a unique Raw probe block and returns its CID, which
// is all a store keeps of it; CID collisions are ruled out by the hash
// construction (paper footnote 15).
func (p *GatewayProber) randomBlock() cid.CID {
	data := make([]byte, 64)
	binary.LittleEndian.PutUint64(data, p.rng.Uint64())
	binary.LittleEndian.PutUint64(data[8:], p.rng.Uint64())
	p.rng.Read(data[16:])
	return cid.Sum(cid.Raw, data)
}

// Probe runs the pipeline against one gateway and reports through done.
func (p *GatewayProber) Probe(gw *gateway.Gateway, done func(ProbeResult)) {
	probeCID := p.randomBlock()

	// Step 1: make the monitors providers for the probe CID. They store
	// the block (so the HTTP request can actually succeed) and announce
	// provider records in the DHT.
	for _, m := range p.monitors {
		m.Node.Store.Put(probeCID, nil)
		m.Node.DHT.Provide(dht.KeyForCID(probeCID), nil)
	}

	// Step 2: start collecting sightings of the probe CID (the unique CID
	// means anything observed from now on is this probe's traffic).
	p.pending[probeCID.Key()] = &probeSightings{addrs: make(map[simnet.NodeID]string)}

	// Step 3: request the probe CID through the gateway's HTTP side, then
	// wait for Bitswap messages to arrive at the monitors.
	res := ProbeResult{
		GatewayName:     gw.Name,
		ProbeCID:        probeCID,
		DiscoveredAddrs: make(map[simnet.NodeID]string),
	}
	gw.Retrieve(0, probeCID, func(r gateway.Result) {
		res.HTTPStatus = r.Status
		res.HTTPFunctional = r.Status == gateway.StatusOK
	})
	p.net.After(p.WaitFor, func() {
		if ps := p.pending[probeCID.Key()]; ps != nil { // nil after Close
			delete(p.pending, probeCID.Key())
			res.DiscoveredIDs = ps.ids
			res.DiscoveredAddrs = ps.addrs
		}
		done(res)
	})
}

// ProbeAll probes every gateway in the registry sequentially (a fresh
// random CID per trial, as in the paper) and reports the collected results.
func (p *GatewayProber) ProbeAll(reg *gateway.Registry, done func([]ProbeResult)) {
	gws := reg.All()
	results := make([]ProbeResult, 0, len(gws))
	var next func(i int)
	next = func(i int) {
		if i >= len(gws) {
			done(results)
			return
		}
		p.Probe(gws[i], func(r ProbeResult) {
			results = append(results, r)
			next(i + 1)
		})
	}
	next(0)
}

// CrossReference compares discovered IDs with the ground-truth registry,
// returning how many gateways were correctly identified and how many node
// IDs were discovered in total (the paper reports 93 gateway node IDs, and
// one operator confirming all 13 of its nodes).
func CrossReference(results []ProbeResult, truth map[simnet.NodeID]*gateway.Gateway) (identified int, totalIDs int, correct int) {
	seenIDs := make(map[simnet.NodeID]bool)
	for _, r := range results {
		found := false
		for _, id := range r.DiscoveredIDs {
			if !seenIDs[id] {
				seenIDs[id] = true
				totalIDs++
				if truth[id] != nil {
					correct++
				}
			}
			if g := truth[id]; g != nil && g.Name == r.GatewayName {
				found = true
			}
		}
		if found {
			identified++
		}
	}
	return identified, totalIDs, correct
}
