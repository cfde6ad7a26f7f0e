// Popularity: reproduce the paper's Sec. V-E analysis — compute RRP and URP
// content-popularity scores from a monitored trace, plot their ECDFs as
// ASCII, and run the Clauset–Shalizi–Newman test that rejects the power-law
// hypothesis.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/popularity"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("building a 400-node network and collecting 12h of traces...")
	w, err := workload.Build(workload.Config{
		Seed:         5,
		Nodes:        400,
		CatalogItems: 6000,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		MeanRequestsPerHour: 3,
	})
	if err != nil {
		return err
	}
	w.Run(12 * time.Hour)

	unified, err := ingest.Drain(ingest.NewStreamUnifier(
		ingest.SliceSource(w.Monitors[0].Trace()), ingest.SliceSource(w.Monitors[1].Trace())))
	if err != nil {
		return err
	}
	dedup := trace.Deduplicated(unified)
	fmt.Printf("trace: %d entries raw, %d deduplicated\n\n", len(unified), len(dedup))

	// One streaming pass through the registered fig5 report: the same code
	// path bsanalyze and the live experiment sinks use.
	drv := report.NewDriver(true)
	if err := drv.AddByName([]string{"fig5"}, report.Options{
		BootstrapIters: 60,
		Rand:           func() *rand.Rand { return w.Net.NewRand("fig5") },
	}); err != nil {
		return err
	}
	if err := drv.Run(ingest.SliceSource(unified)); err != nil {
		return err
	}
	results, err := drv.Finalize()
	if err != nil {
		return err
	}
	fig5 := results.Get("fig5").(*report.Fig5)
	fmt.Println(fig5.Render())

	fmt.Println("URP ECDF (paper Fig. 5b):")
	plotECDF(fig5.URPECDF)
	fmt.Println("\nRRP ECDF (paper Fig. 5a):")
	plotECDF(fig5.RRPECDF)

	fmt.Println("\npaper shape checks:")
	fmt.Printf("  - over %.0f%% of CIDs requested by exactly one peer (paper: >80%%)\n", 100*fig5.URPShare1)
	fmt.Printf("  - power-law hypothesis rejected? RRP=%v (p=%.2f), URP=%v (p=%.2f) (paper: rejected, p<0.1)\n",
		fig5.RRPRejected, fig5.RRPPValue, fig5.URPRejected, fig5.URPPValue)
	return nil
}

// plotECDF renders a small ASCII ECDF.
func plotECDF(pts []popularity.ECDFPoint) {
	if len(pts) == 0 {
		fmt.Println("  (empty)")
		return
	}
	const width = 50
	step := len(pts) / 12
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		bar := strings.Repeat("#", int(p.Prob*width))
		fmt.Printf("  %8.0f | %-*s %.3f\n", p.Value, width, bar, p.Prob)
	}
	last := pts[len(pts)-1]
	fmt.Printf("  %8.0f | %-*s %.3f\n", last.Value, width, strings.Repeat("#", width), last.Prob)
}
