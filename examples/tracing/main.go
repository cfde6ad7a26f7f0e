// Tracing walkthrough: run a small monitored world with the causal flight
// recorder on, export the trace for Perfetto, verify the span forest nests
// correctly, and render the span-driven latency breakdown — the loop that
// turns "p99 is X" into "p99 is X because of the DHT rounds".
//
// The demo does four things:
//
//  1. Trace: a 60-node world runs for two simulated hours with an
//     otrace.Tracer attached; half of the requests are head-sampled
//     (deterministically by seed, so a re-run traces the same ones) and
//     carry spans through gateway, DHT, Bitswap and every delivery hop.
//  2. Inspect: the recorded spans are grouped into per-request trees and
//     checked for causal nesting (async hops follow FollowsFrom rules).
//  3. Export: the trace is written as Chrome trace-event JSON — load it at
//     https://ui.perfetto.dev — plus a JSONL sidecar for scripts.
//  4. Break down: the latency_breakdown report consumes the same spans and
//     prints per-stage virtual-time distributions.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"bitswapmon/internal/monitor"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "bitswapmon-tracing")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// --- 1. Run a small world with the flight recorder on ----------------
	fmt.Println("tracing: 60-node world + 2 gateways, 2 simulated hours, 50% head-sampling")
	tracer := otrace.New(otrace.Config{Sample: 0.5, Seed: 11})
	w, err := workload.Build(workload.Config{
		Seed:  11,
		Nodes: 60,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
		},
		Gateways: []workload.OperatorSpec{
			// An HTTP gateway fleet, so the trace also shows the cache-hit
			// short-circuit vs full-fetch split on gateway.fetch spans.
			{Name: "gw", Nodes: 2, RequestsPerHour: 40, HotBias: 3, Functional: true, CacheTTL: workload.Duration(30 * time.Minute)},
		},
		CatalogItems:        200,
		MeanRequestsPerHour: 6,
		Tracer:              tracer,
	})
	if err != nil {
		return err
	}
	w.Run(2 * time.Hour)

	// --- 2. Group spans into request trees and check causal nesting ------
	spans := tracer.Spans()
	trees := otrace.BuildTrees(spans)
	for _, tree := range trees {
		if err := tree.CheckNesting(); err != nil {
			return fmt.Errorf("span forest is causally inconsistent: %w", err)
		}
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	fmt.Printf("recorded %d spans across %d sampled requests (dropped %d)\n",
		len(spans), len(trees), tracer.Dropped())
	for _, name := range []string{"request", "gateway.fetch", "dht.lookup", "bitswap.get", "send.want_have", "send.block"} {
		if n := byName[name]; n > 0 {
			fmt.Printf("  %-16s %5d\n", name, n)
		}
	}

	// --- 3. Export for Perfetto ------------------------------------------
	out := filepath.Join(dir, "trace.json")
	if err := tracer.WriteFiles(out); err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes) — open at https://ui.perfetto.dev\n", out, fi.Size())
	fmt.Printf("wrote %s.jsonl — one Span per line for jq/scripts\n", out)

	// --- 4. Per-stage latency breakdown from the same spans ---------------
	rep, err := report.New("latency_breakdown", report.Options{Tracer: tracer})
	if err != nil {
		return err
	}
	res, err := rep.Finalize()
	if err != nil {
		return err
	}
	fmt.Println("\n" + res.Render())
	return nil
}
