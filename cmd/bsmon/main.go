// Command bsmon runs a monitored scenario and streams each monitor's trace
// to disk while the simulation runs, mirroring the paper's collection
// infrastructure: entries flow into a segment store instead of accumulating
// in RAM, so resident memory is bounded by the segment rotation window, not
// the measurement length.
//
// Usage:
//
//	bsmon -out DIR [-nodes N] [-hours H] [-seed N] [-rotate DUR] [-csv]
//	      [-trace-out FILE] [-trace-sample F] [-metrics-addr ADDR]
//
// Output per monitor M:
//
//	DIR/M.segments/NNNNNN.seg — time-partitioned compressed segments with
//	                            footers (the queryable store)
//	DIR/M.csv                 — with -csv only: a CSV copy of every entry,
//	                            produced disk-to-disk from the segments
//
// Both modes shut down cleanly on SIGINT/SIGTERM: the active segment is
// sealed before exit, so an interrupted store always reopens queryable.
//
// With -serve, bsmon becomes a continuous-monitoring daemon instead of a
// bounded run: the simulation streams indefinitely, rolling windows of
// registry reports are evaluated live, segment stores are compacted and
// expired in the background, and an HTTP endpoint serves /metrics, /reports
// and /healthz. See serve.go.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"bitswapmon/internal/cmdutil"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bsmon:", err)
		os.Exit(1)
	}
}

// runStep is the virtual-time chunk the run loop advances between shutdown
// checks: small enough that a signal turns into a sealed store promptly,
// large enough that loop overhead is negligible.
const runStep = 15 * time.Minute

func run(args []string) error {
	fs := flag.NewFlagSet("bsmon", flag.ContinueOnError)
	outDir := fs.String("out", "traces", "output directory")
	nodes := fs.Int("nodes", 400, "population size")
	hours := fs.Int("hours", 24, "measurement window in virtual hours (0 with -serve: run until signalled)")
	seed := fs.Int64("seed", 1, "simulation seed")
	csv := fs.Bool("csv", false, "also write a CSV copy of every entry (DIR/M.csv)")
	rotate := fs.Duration("rotate", time.Hour, "segment rotation window (virtual time)")
	traceOut := fs.String("trace-out", "", "record causal request traces and write Chrome trace-event JSON (Perfetto-loadable) plus a .jsonl sidecar to this path")
	traceSample := fs.Float64("trace-sample", 1, "deterministic trace head-sampling rate in [0,1] (with -trace-out)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :9090) and enable instrumentation")

	serve := fs.Bool("serve", false, "run as a continuous-monitoring service: rolling-window reports, retention/compaction, HTTP endpoints")
	sc := bindServeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// SIGINT/SIGTERM turn into context cancellation: the run loop stops at
	// the next step boundary and every store seals its active segment, so a
	// killed bsmon never leaves an unsealed (bsanalyze-rejected) segment.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *serve {
		sc.out = *outDir
		sc.nodes = *nodes
		sc.hours = *hours
		sc.seed = *seed
		sc.rotate = *rotate
		return runServe(ctx, sc)
	}
	if *hours <= 0 {
		return fmt.Errorf("-hours must be positive without -serve")
	}

	var tracer *otrace.Tracer
	if *traceOut != "" {
		if *traceSample < 0 || *traceSample > 1 {
			return fmt.Errorf("-trace-sample %v out of [0,1]", *traceSample)
		}
		tracer = otrace.New(otrace.Config{Sample: *traceSample, Seed: *seed})
	}
	srv, err := cmdutil.ServeMetrics(*metricsAddr)
	if err != nil {
		return err
	}
	if srv != nil {
		fmt.Fprintf(os.Stderr, "bsmon: serving metrics on http://%s/metrics\n", srv.Addr())
		defer srv.Close()
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	w, err := buildWorld(*seed, *nodes, tracer)
	if err != nil {
		return fmt.Errorf("build scenario: %w", err)
	}

	// Capture path: every monitor streams into a segment store. Nothing
	// retains the full trace in memory.
	stores := make([]*ingest.SegmentStore, len(w.Monitors))
	for i, m := range w.Monitors {
		store, err := openFreshStore(filepath.Join(*outDir, m.Name+".segments"), ingest.SegmentOptions{Rotation: *rotate})
		if err != nil {
			return err
		}
		stores[i] = store
		m.SetSink(store)
	}

	// Whatever goes wrong below, seal every store: an unclosed store loses
	// its active segment (up to a whole rotation window of entries).
	defer func() {
		for _, store := range stores {
			store.Close()
		}
	}()

	fmt.Printf("running %d nodes for %dh of virtual time...\n", *nodes, *hours)
	interrupted := runFor(ctx, w, time.Duration(*hours)*time.Hour)
	if interrupted {
		fmt.Fprintln(os.Stderr, "bsmon: interrupted — sealing active segments")
	}

	for i, m := range w.Monitors {
		if err := stores[i].Close(); err != nil {
			return fmt.Errorf("monitor %s: seal store: %w", m.Name, err)
		}
		if err := m.SinkErr(); err != nil {
			return fmt.Errorf("monitor %s: capture: %w", m.Name, err)
		}
		tot := stores[i].Totals()
		fmt.Printf("monitor %s: %d entries in %d segments, %s to %s -> %s\n",
			m.Name, tot.Entries, len(stores[i].Segments()),
			tot.First.Format(time.RFC3339), tot.Last.Format(time.RFC3339),
			filepath.Join(*outDir, m.Name+".segments"))

		// An interrupted run skips the CSV export: the priority is a sealed,
		// queryable store on disk, not a full post-processing pass.
		if *csv && !interrupted {
			if err := exportCSV(stores[i], filepath.Join(*outDir, m.Name+".csv")); err != nil {
				return err
			}
		}
	}
	if tracer != nil && !interrupted {
		fmt.Println(report.BreakdownFromSpans(tracer.Spans(), tracer.Dropped()).Render())
	}
	return cmdutil.ExportTrace("bsmon", *traceOut, tracer)
}

// buildWorld constructs the standard two-monitor scenario both modes run.
func buildWorld(seed int64, nodes int, tracer *otrace.Tracer) (*workload.World, error) {
	return workload.Build(workload.Config{
		Seed:  seed,
		Nodes: nodes,
		Monitors: []workload.MonitorSpec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		Tracer: tracer,
	})
}

// openFreshStore opens a segment store and refuses one already holding
// data: virtual time restarts every run, so appending a second run would
// interleave out-of-order streams and corrupt downstream unification —
// and unsealed leftovers from a crashed run are treated the same way.
func openFreshStore(dir string, opts ingest.SegmentOptions) (*ingest.SegmentStore, error) {
	store, err := ingest.OpenSegmentStore(dir, opts)
	if err != nil {
		return nil, err
	}
	if tot := store.Totals(); tot.Entries > 0 || len(store.Skipped()) > 0 {
		return nil, fmt.Errorf("segment store %s already holds data from a previous run (%d sealed entries, %d unsealed files); use a fresh -out directory",
			dir, tot.Entries, len(store.Skipped()))
	}
	return store, nil
}

// runFor advances the simulation in runStep chunks until total virtual time
// has elapsed or ctx is cancelled, reporting whether it was interrupted.
func runFor(ctx context.Context, w *workload.World, total time.Duration) bool {
	for elapsed := time.Duration(0); elapsed < total; elapsed += runStep {
		if ctx.Err() != nil {
			return true
		}
		step := runStep
		if rem := total - elapsed; rem < step {
			step = rem
		}
		w.Run(step)
	}
	return ctx.Err() != nil
}

// exportCSV streams the store into a CSV file, disk to disk.
func exportCSV(store *ingest.SegmentStore, path string) error {
	it, err := store.Query(time.Time{}, time.Time{}, nil)
	if err != nil {
		return err
	}
	defer it.Close()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	cw := trace.NewCSVWriter(f)
	if _, err := ingest.Copy(cw, it); err != nil {
		return fmt.Errorf("export %s: %w", path, err)
	}
	if err := cw.Close(); err != nil {
		return err
	}
	return f.Close()
}
