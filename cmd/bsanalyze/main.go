// Command bsanalyze unifies monitor traces and runs the paper's analyses.
// Inputs may be segment store directories (a sweep run's mon-M.segments,
// bsmon's M.segments), CSV exports (*.csv) or flat binary trace files
// (*.trace); each input is one monitor's time-ordered stream, opened by
// ingest.OpenInputs. Unification runs online through ingest.StreamUnifier —
// one sliding window of state — and every report observes the unified
// stream entry by entry, so memory is bounded by report state, never trace
// length.
//
// Usage:
//
//	bsanalyze [-dedup] [-report NAME[,NAME...]] [-bucket D] [-iters N] [-topk K] INPUT...
//
// -report names any combination of registered reports (internal/report);
// all of them run in the same single pass over the inputs. Each report
// declares whether it consumes the raw or the deduplicated view — Table I
// counts duplicate requests per the paper, Table II and the figures do not
// — and -dedup=false feeds everything the raw trace. Unknown report names
// fail before any input is opened, listing what is available.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bitswapmon/internal/cmdutil"
	"bitswapmon/internal/geoip"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bsanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bsanalyze", flag.ContinueOnError)
	reports := fs.String("report", "summary", "comma-separated reports to run in one pass: "+strings.Join(report.Names(), ", "))
	dedup := fs.Bool("dedup", true, "filter duplicates/rebroadcasts for reports that analyse the deduplicated view")
	bucket := fs.Duration("bucket", time.Hour, "bucket size for fig4 and online")
	iters := fs.Int("iters", 50, "bootstrap iterations of the power-law test fig5 and popularity read: one test per distribution per pass")
	topk := fs.Int("topk", 10, "CIDs to list in online's exact top K by requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cmdutil.RejectNegative(fs, "bucket", "iters", "topk"); err != nil {
		return err
	}

	// Resolve every report before opening (and potentially draining) the
	// inputs: an unknown name must fail fast, with the registry's list.
	opts := report.Options{
		Bucket:         *bucket,
		TopK:           *topk,
		BootstrapIters: *iters,
		Geo:            geoip.New(),
	}
	names := strings.Split(*reports, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}
	drv := report.NewDriver(*dedup)
	if err := drv.AddByName(names, opts); err != nil {
		return err
	}

	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("no trace inputs given")
	}
	sources, cleanup, err := ingest.OpenInputs(paths)
	if err != nil {
		return err
	}
	defer cleanup()

	// One pass: the unified stream is teed through every requested report.
	if err := drv.Run(ingest.NewStreamUnifier(sources...)); err != nil {
		return err
	}
	// A report that cannot finalize must not swallow the others' completed
	// results: print what succeeded, then fail.
	results, ferr := drv.Finalize()
	for _, nr := range results {
		if nr.Result == nil {
			continue
		}
		if len(results) > 1 {
			fmt.Printf("==== %s ====\n", nr.Name)
		}
		fmt.Println(nr.Result.Render())
	}
	return ferr
}
