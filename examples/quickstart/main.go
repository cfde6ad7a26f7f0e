// Quickstart: build a small IPFS-like network, attach one passive monitor,
// publish and fetch content, and print what the monitor observed — the core
// of the paper's methodology in ~80 lines.
package main

import (
	"fmt"
	"log"
	"time"

	"bitswapmon/internal/dht"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/node"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
	net := simnet.New(start, 1, nil)
	rng := net.NewRand("quickstart")

	// A handful of regular nodes. A 16-byte chunk size makes even a short
	// file a DAG of several blocks.
	var nodes []*node.Node
	for i := 0; i < 8; i++ {
		id := simnet.RandomNodeID(rng)
		nd, err := node.New(net, id, fmt.Sprintf("10.0.0.%d:4001", i+1), simnet.RegionDE, node.Config{ChunkSize: 16})
		if err != nil {
			return err
		}
		nodes = append(nodes, nd)
	}

	// One passive monitor with unlimited connection capacity, recording to memory.
	mon, err := monitor.New(net, "demo", "78.0.0.1:4001", simnet.RegionDE)
	if err != nil {
		return err
	}
	mem := ingest.NewMemorySink()
	mon.SetSink(mem)

	// Bootstrap everyone against node 0 and connect the overlay densely;
	// every node also ends up connected to the monitor (as in the paper,
	// where monitors reach >50% of the network).
	boot := []dht.PeerInfo{nodes[0].Info()}
	mon.Start(boot)
	for _, nd := range nodes {
		nd.Start(boot)
		for _, other := range nodes {
			if other.ID != nd.ID {
				_ = net.Connect(nd.ID, other.ID)
			}
		}
		_ = net.Connect(nd.ID, mon.ID())
	}
	net.Run(2 * time.Second)

	// Node 0 publishes a file; node 5 fetches its whole DAG. Only the root
	// is broadcast, so the monitor sees that request and none for the
	// leaves, which go to the root's session peers.
	root := nodes[0].Publish([]byte("hello from the interplanetary filesystem"))
	net.Run(5 * time.Second)

	nodes[5].Fetch(otrace.Ctx{}, root, func(ok bool) {
		fmt.Printf("node %s fetched DAG %s (ok=%v): its store holds %d blocks\n", nodes[5].ID, root, ok, nodes[5].Store.Len())
	})
	net.Run(30 * time.Second)

	// The monitor saw the request — without participating in it.
	entries := mem.Snapshot()
	fmt.Printf("\nmonitor %q observed %d want entries:\n", mon.Name, len(entries))
	for _, e := range entries {
		fmt.Printf("  %s  node=%s  addr=%s  %s  cid=%s\n",
			e.Timestamp.Format("15:04:05.000"), e.NodeID, e.Addr, e.Type, e.CID)
	}

	// Analyse it with the streaming report registry: any combination of
	// named reports runs in one pass over the trace — the same code path
	// bsanalyze uses over segment stores and live experiments attach as
	// monitor sinks.
	drv := report.NewDriver(true)
	if err := drv.AddByName([]string{"summary", "table1"}, report.Options{}); err != nil {
		return err
	}
	if err := drv.Run(ingest.SliceSource(entries)); err != nil {
		return err
	}
	results, err := drv.Finalize()
	if err != nil {
		return err
	}
	for _, nr := range results {
		fmt.Printf("\n==== %s ====\n%s", nr.Name, nr.Result.Render())
	}
	return nil
}
