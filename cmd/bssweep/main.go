// Command bssweep runs whole experiment campaigns: families of simulation
// runs expanded from a declarative sweep spec, executed across a bounded
// worker pool, with durable per-run results and resumable progress.
//
// Usage:
//
//	bssweep run -spec sweep.json -root DIR [-workers N] [-dry-run]
//	            [-trace] [-trace-sample F]
//	            [-metrics-addr ADDR] [-progress] [-cpuprofile FILE] [-memprofile FILE]
//	bssweep resume -root DIR [-workers N] [same operational flags as run]
//	bssweep report -root DIR [-metric M -rows PARAM [-cols PARAM]] [-csv FILE]
//	bssweep params
//	bssweep preset small|week|upgrade
//
// run expands the sweep (cartesian axes × explicit cases × seed
// replicates) and executes every run that the root's manifest does not
// already record as done — so re-invoking run (or resume, which reads the
// spec pinned in the root) after a crash or Ctrl-C picks up where the
// sweep left off without re-executing completed runs. Each run streams its
// monitor traces into per-run segment stores under DIR/runs/<run-id>/ and
// leaves a summary.json of comparison metrics and a report.txt with every
// report's rendered text.
//
// preset prints a one-run sweep spec of one of the paper's scenarios —
// small (sweep.DefaultSpec), week (sweep.WeekSpec) or upgrade
// (sweep.UpgradeSpec(150, 3), Fig. 4) — to run as it is or to start a
// campaign from:
//
//	bssweep preset small > small.json
//	bssweep run -spec small.json -root out -workers 1
//
// report joins the completed runs' summaries — never the raw traces — into
// a long-form CSV (default) or, with -rows/-cols/-metric, a comparison
// table such as gateway traffic share vs. population × churn. Report
// output is deterministic: the same completed sweep produces the same
// bytes on every invocation.
//
// While a sweep executes, -metrics-addr serves live Prometheus metrics and
// /debug/pprof, and -progress (default on when stderr is a terminal) prints
// a periodic progress line with an ETA, both fed by the same sweep
// instrumentation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bitswapmon/internal/cmdutil"
	"bitswapmon/internal/obs"
	"bitswapmon/internal/report"
	"bitswapmon/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bssweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: bssweep run|resume|report|params|preset ...")
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "resume":
		return cmdResume(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "params":
		return cmdParams(os.Stdout)
	case "preset":
		return cmdPreset(os.Stdout, args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want run, resume, report, params or preset)", args[0])
	}
}

// opsFlags is the operational flag set shared by run and resume: the live
// metrics endpoint, the progress line, and the profile pair.
type opsFlags struct {
	metricsAddr string
	progress    bool
	cpuprofile  string
	memprofile  string
}

func addOpsFlags(fs *flag.FlagSet) *opsFlags {
	o := &opsFlags{}
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :9090) and enable instrumentation")
	fs.BoolVar(&o.progress, "progress", stderrIsTTY(), "print a periodic progress line to stderr")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	return o
}

func stderrIsTTY() bool {
	st, err := os.Stderr.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("bssweep run", flag.ContinueOnError)
	specPath := fs.String("spec", "", "sweep spec file (JSON)")
	root := fs.String("root", "", "sweep root directory (created if absent)")
	workers := fs.Int("workers", 4, "concurrent runs")
	dryRun := fs.Bool("dry-run", false, "list the expanded runs and exit")
	traceRuns := fs.Bool("trace", false, "enable causal request tracing in every run (writes trace.json + .jsonl into each run directory)")
	traceSample := fs.Float64("trace-sample", 1, "deterministic trace head-sampling rate in [0,1] (with -trace)")
	ops := addOpsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("run needs -spec")
	}
	sw, err := sweep.LoadSweep(*specPath)
	if err != nil {
		return err
	}
	if *traceRuns {
		sw.Base.Trace = true
		sw.Base.TraceSample = *traceSample
	}
	if *dryRun {
		runs, err := sweep.Expand(sw)
		if err != nil {
			return err
		}
		fmt.Printf("sweep %q expands to %d runs:\n", sw.Name, len(runs))
		for _, r := range runs {
			fmt.Printf("  %s\n", r.ID)
		}
		return nil
	}
	if *root == "" {
		return fmt.Errorf("run needs -root")
	}
	return orchestrate(*root, sw, *workers, ops)
}

func cmdResume(args []string) error {
	fs := flag.NewFlagSet("bssweep resume", flag.ContinueOnError)
	root := fs.String("root", "", "sweep root directory holding a pinned sweep.json")
	workers := fs.Int("workers", 4, "concurrent runs")
	ops := addOpsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *root == "" {
		return fmt.Errorf("resume needs -root")
	}
	sw, err := sweep.LoadRoot(*root)
	if err != nil {
		return err
	}
	return orchestrate(*root, sw, *workers, ops)
}

// metricsServed is a test seam: the e2e test overrides it to learn the
// ephemeral address -metrics-addr=:0 bound.
var metricsServed = func(addr string) {}

func orchestrate(root string, sw sweep.SweepSpec, workers int, ops *opsFlags) error {
	srv, err := cmdutil.ServeOps(ops.metricsAddr, nil)
	if err != nil {
		return err
	}
	if srv != nil {
		fmt.Fprintf(os.Stderr, "bssweep: serving metrics on http://%s/metrics\n", srv.Addr())
		metricsServed(srv.Addr())
		defer srv.Close()
	}
	prof, err := cmdutil.StartProfiles(ops.cpuprofile, ops.memprofile)
	if err != nil {
		return err
	}
	if ops.progress {
		// The progress line reads the sweep counters back from the obs
		// registry, so instrumentation must be on even without an endpoint.
		sweep.EnableMetrics(nil)
	}

	// Ctrl-C cancels cleanly: in-flight runs finish and are recorded, so
	// the next invocation resumes instead of redoing them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var stopProgress func()
	if ops.progress {
		stopProgress = startProgress(os.Stderr, 2*time.Second)
	}
	res, err := sweep.RunSweep(ctx, root, sw, sweep.Options{
		Workers: workers,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bssweep: "+format+"\n", args...)
		},
	})
	if stopProgress != nil {
		stopProgress()
	}
	if res != nil {
		fmt.Printf("sweep %q: %d runs total, %d executed, %d resumed (skipped), %d failed\n",
			sw.Name, res.Total, res.Executed, res.Skipped, res.Failed)
	}
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	return err
}

// startProgress prints a progress line to w every interval, driven by the
// sweep metrics (runs done/total, failures, elapsed, ETA). The returned stop
// function prints one final line and is idempotent.
func startProgress(w io.Writer, every time.Duration) func() {
	start := time.Now()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				printProgress(w, start)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			printProgress(w, start)
		})
	}
}

func printProgress(w io.Writer, start time.Time) {
	snap := obs.Default.Snapshot()
	total := snap["sweep_runs_total"]
	if total <= 0 {
		return
	}
	completed := snap["sweep_runs_completed_total"]
	failed := snap["sweep_runs_failed_total"]
	skipped := snap["sweep_runs_skipped_total"]
	doneRuns := completed + failed + skipped
	elapsed := time.Since(start)
	line := fmt.Sprintf("bssweep: %.0f/%.0f runs done (%.0f failed, %.0f resumed), elapsed %s",
		doneRuns, total, failed, skipped, elapsed.Round(time.Second))
	// ETA from this process's executed-run rate; resumed runs cost nothing,
	// so they are excluded from the rate.
	if executed := completed + failed; executed > 0 {
		if remaining := total - doneRuns; remaining > 0 {
			eta := time.Duration(float64(elapsed) / executed * remaining)
			line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
		}
	}
	fmt.Fprintln(w, line)
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("bssweep report", flag.ContinueOnError)
	root := fs.String("root", "", "sweep root directory")
	metric := fs.String("metric", "", "metric for the comparison table (see bssweep params)")
	rows := fs.String("rows", "", "sweep parameter on table rows")
	cols := fs.String("cols", "", "sweep parameter on table columns (optional)")
	csvPath := fs.String("csv", "", "also write the CSV to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *root == "" {
		return fmt.Errorf("report needs -root")
	}
	recs, err := sweep.LoadSummaries(*root)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no completed runs in %s (run or resume the sweep first)", *root)
	}
	entries, err := sweep.LoadManifest(*root)
	if err != nil {
		return err
	}
	// Manifest entries load as a map keyed by run ID; warn in sorted order
	// so repeated report invocations print identically.
	runIDs := make([]string, 0, len(entries))
	for id := range entries {
		runIDs = append(runIDs, id)
	}
	sort.Strings(runIDs)
	failed := 0
	for _, id := range runIDs {
		if e := entries[id]; e.Status == sweep.StatusFailed {
			failed++
			fmt.Fprintf(os.Stderr, "bssweep: warning: run %s failed: %s\n", e.RunID, e.Error)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bssweep: warning: %d failed runs excluded from the report; resume to retry them\n", failed)
	}

	var csv string
	if *rows != "" || *metric != "" {
		if *rows == "" || *metric == "" {
			return fmt.Errorf("comparison tables need both -rows and -metric")
		}
		table, err := sweep.ComputeTable(recs, *rows, *cols, *metric)
		if err != nil {
			return err
		}
		fmt.Print(table.Render())
		csv = table.CSV()
	} else {
		csv = sweep.CSV(recs)
		fmt.Print(csv)
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bssweep: wrote %s\n", *csvPath)
	}
	return nil
}

func cmdParams(w io.Writer) error {
	fmt.Fprintln(w, "sweepable parameters (axis/case keys):")
	for _, p := range sweep.KnownParams() {
		fmt.Fprintf(w, "  %-26s %s\n", p, sweep.ParamDoc(p))
	}
	fmt.Fprintln(w, "\nreport metrics:")
	fmt.Fprintf(w, "  %s\n", strings.Join(sweep.KnownMetrics(), ", "))
	fmt.Fprintln(w, "  coverage:<monitor>")
	fmt.Fprintf(w, "  <report>:<metric> for any extra report a spec requests (registered: %s)\n",
		strings.Join(report.Names(), ", "))
	fmt.Fprintln(w, "  secvc:<metric> and fig3:<metric> for a run with crawl: true (the Sec. V-C panel and Fig. 3)")
	fmt.Fprintf(w, "\npresets (bssweep preset NAME): %s\n", strings.Join(presetNames(), ", "))
	return nil
}

// presets are the paper's scenarios by the name bssweep preset takes.
var presets = map[string]func() sweep.ScenarioSpec{
	"small":   sweep.DefaultSpec,
	"week":    sweep.WeekSpec,
	"upgrade": func() sweep.ScenarioSpec { return sweep.UpgradeSpec(150, 3) },
}

func presetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// cmdPreset prints a one-run sweep spec whose base is the named preset and
// whose seed is the preset's.
func cmdPreset(w io.Writer, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bssweep preset %s", strings.Join(presetNames(), "|"))
	}
	preset, ok := presets[args[0]]
	if !ok {
		return fmt.Errorf("unknown preset %q (want %s)", args[0], strings.Join(presetNames(), ", "))
	}
	spec := preset()
	blob, err := sweep.SweepSpec{
		Version: sweep.SpecVersion,
		Name:    spec.Name,
		Base:    spec,
		Seeds:   sweep.SeedPolicy{Base: spec.Seed},
	}.Marshal()
	if err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}
