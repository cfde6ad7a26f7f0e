// Sweep walkthrough: declare a scenario once, vary it along axes, run the
// whole family of simulations on a worker pool, then compare the grid —
// the workflow behind every "metric X vs. population × churn" panel. The
// demo also interrupts the sweep halfway and resumes it, showing how the
// manifest skips completed runs, and prints the aggregate comparison that
// joins per-run summaries without re-reading any raw trace.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"bitswapmon/internal/monitor"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	root, err := os.MkdirTemp("", "bitswapmon-sweep")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// One declarative scenario: a small, traffic-dense two-monitor world.
	// Everything left zero takes the workload package's defaults. Reports
	// names an extra registered report (internal/report) to run over each
	// run's unified trace: its metrics land in the per-run summary as
	// "table1:<metric>" and aggregate by name like any built-in metric —
	// a new comparison metric without touching the sweep layer.
	base := sweep.ScenarioSpec{
		Version: sweep.SpecVersion,
		Name:    "demo",
		Config: workload.Config{
			Nodes:            40,
			BootstrapServers: 8,
			CatalogItems:     200,
			ActiveFrac:       0.8,
			Monitors: []monitor.Spec{
				{Name: "us", Region: "US"},
				{Name: "de", Region: "DE"},
			},
			Gateways:            []workload.OperatorSpec{}, // no gateways: faster demo
			MeanRequestsPerHour: 30,
		},
		Warmup:      sweep.D(10 * time.Minute),
		Window:      sweep.D(time.Hour),
		SampleEvery: sweep.D(20 * time.Minute),
		Reports:     []string{"table1"},
	}

	// Vary population × churn, two seeds per cell: 3×2×2 = 12 runs.
	sw := sweep.SweepSpec{
		Version: sweep.SpecVersion,
		Name:    "population-x-churn",
		Base:    base,
		Axes: []sweep.Axis{
			{Param: "nodes", Values: []any{30, 60, 90}},
			{Param: "mean_session", Values: []any{"2h", "8h"}},
		},
		Seeds: sweep.SeedPolicy{Base: 42, Replicates: 2},
	}
	runs, err := sweep.Expand(sw)
	if err != nil {
		return err
	}
	fmt.Printf("sweep %q expands to %d runs, e.g. %s\n", sw.Name, len(runs), runs[0].ID)

	// Phase 1: start the campaign, but cancel after a few runs — the
	// moral equivalent of Ctrl-C (or a crash) halfway through.
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	res, _ := sweep.RunSweep(ctx, root, sw, sweep.Options{
		Workers: 4,
		AfterRun: func(string) {
			if done.Add(1) >= 4 {
				cancel()
			}
		},
	})
	cancel()
	fmt.Printf("interrupted after %d/%d runs\n", res.Executed, res.Total)

	// Phase 2: resume. The manifest skips everything already completed.
	res, err = sweep.RunSweep(context.Background(), root, sw, sweep.Options{Workers: 4})
	if err != nil {
		return err
	}
	fmt.Printf("resumed: %d executed, %d skipped (already done)\n\n", res.Executed, res.Skipped)

	// Aggregate: join the per-run summaries into the comparison panel.
	// Only summary.json files are read here — never raw trace segments.
	// Metrics are resolved by name from each summary's metrics map, so the
	// extra report's numbers aggregate exactly like the built-ins.
	recs, err := sweep.LoadSummaries(root)
	if err != nil {
		return err
	}
	table, err := sweep.ComputeTable(recs, "nodes", "mean_session", "peer_overlap")
	if err != nil {
		return err
	}
	fmt.Print(table.Render())
	fmt.Println()
	table, err = sweep.ComputeTable(recs, "nodes", "mean_session", "dedup_entries")
	if err != nil {
		return err
	}
	fmt.Print(table.Render())
	fmt.Println()
	table, err = sweep.ComputeTable(recs, "nodes", "mean_session", "table1:requests")
	if err != nil {
		return err
	}
	fmt.Print(table.Render())
	return nil
}
