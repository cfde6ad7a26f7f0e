// Gateway probing: reproduce the paper's Sec. VI-B proof of concept — use a
// unique random block and the monitoring infrastructure to uncover the
// normally hidden IPFS node IDs behind public HTTP gateways, then launch a
// TNW (Tracking Node Wants) attack against the identified nodes.
package main

import (
	"fmt"
	"log"
	"time"

	"bitswapmon/internal/attacks"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("building network with a gateway fleet (incl. a 13-node operator)...")
	w, err := workload.Build(workload.Config{
		Seed:  11,
		Nodes: 300,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
	})
	if err != nil {
		return err
	}
	us, de := ingest.NewMemorySink(), ingest.NewMemorySink()
	w.Monitors[0].SetSink(us)
	w.Monitors[1].SetSink(de)
	fmt.Printf("public gateway list has %d entries across %d operators\n",
		len(w.Registry.All()), len(w.Registry.ByOperator()))

	fmt.Println("running 2 hours of background traffic...")
	w.Run(2 * time.Hour)

	// Probe every listed gateway with a fresh random CID each.
	results := sweep.ProbeGateways(w)

	truth := w.Registry.NodeIDs()
	identified, total, correct := attacks.CrossReference(results, truth)
	fmt.Printf("\nprobing complete: identified %d/%d gateways, %d node IDs discovered (%d confirmed)\n",
		identified, len(results), total, correct)
	for _, r := range results {
		status := "http-ok"
		if !r.HTTPFunctional {
			status = "http-broken"
		}
		fmt.Printf("  %-28s %-11s discovered IDs: %d\n", r.GatewayName, status, len(r.DiscoveredIDs))
	}

	// TNW: surveil the first discovered gateway node.
	var target simnet.NodeID
	for _, r := range results {
		if len(r.DiscoveredIDs) > 0 {
			target = r.DiscoveredIDs[0]
			break
		}
	}
	fmt.Printf("\nTNW attack on discovered gateway node %s:\n", target)
	raw, err := ingest.Drain(ingest.NewStreamUnifier(
		ingest.SliceSource(us.Snapshot()), ingest.SliceSource(de.Snapshot())))
	if err != nil {
		return err
	}
	unified := trace.Deduplicated(raw)
	profile := attacks.ProfileNode(unified, target)
	fmt.Printf("  observed %d requests for %d distinct CIDs between %s and %s\n",
		profile.Requests, profile.UniqueCIDs,
		profile.First.Format(time.RFC3339), profile.Last.Format(time.RFC3339))

	wants := attacks.TrackNodeWants(unified, target)
	limit := 10
	if len(wants) < limit {
		limit = len(wants)
	}
	for _, e := range wants[:limit] {
		fmt.Printf("    %s  %s  %s\n", e.Timestamp.Format("15:04:05"), e.Type, e.CID)
	}
	if len(wants) > limit {
		fmt.Printf("    ... and %d more\n", len(wants)-limit)
	}
	return nil
}
