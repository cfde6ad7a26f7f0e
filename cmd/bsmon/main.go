// Command bsmon is the continuous-monitoring daemon: the paper's monitors
// ran for months (Sec. IV-A), and bsmon keeps simulated monitors running the
// same way. It starts one scenario spec exactly as a sweep run does
// (sweep.Start: build, warm up unrecorded), then advances it step by
// step, streaming each monitor's trace into a segment store, so resident
// memory is bounded by the segment rotation window, not the uptime. Registry
// reports are evaluated over rolling windows of the live unified stream, the
// stores are compacted and expired in the background, and one HTTP endpoint
// serves /metrics, /debug/pprof, /reports and /healthz.
//
// Usage:
//
//	bsmon -out DIR [-spec FILE] [-hours H] [-rotate DUR]
//	      [-serve-addr ADDR] [-addr-file FILE]
//	      [-window DUR] [-window-slide DUR] [-windows-keep N] [-window-reports LIST]
//	      [-retain DUR] [-compact-run N] [-compact-small N] [-maintain-every DUR]
//	      [-step DUR] [-pace DUR]
//
// -spec FILE is a one-run sweep spec as bssweep preset prints it (default:
// the small preset). Its window, crawl, probes and reports are a bounded
// run's and go unused. Output, the layout of a sweep run directory:
//
//	DIR/mon-M.segments/NNNNNN.seg — per monitor M, time-partitioned compressed
//	                                segments with footers (the queryable store)
//	DIR/windows.jsonl             — one JSON line per closed report window
//
// -hours H stops the daemon after H virtual hours (0: run until signalled),
// with the stores a bssweep run of the spec with an H-hour window writes.
// SIGINT/SIGTERM shut it down cleanly: every active segment is sealed before
// exit, so an interrupted store always reopens queryable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
	"unicode"

	"bitswapmon/internal/cmdutil"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/report"
	"bitswapmon/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bsmon:", err)
		os.Exit(1)
	}
}

// run is the daemon. It returns once a signal or the -hours bound has
// stopped the loop and shutdown has sealed every active segment, finalized
// the open windows and run a final compaction pass.
func run(args []string) error {
	fs := flag.NewFlagSet("bsmon", flag.ContinueOnError)
	outDir := fs.String("out", "traces", "output directory")
	specFile := fs.String("spec", "", "one-run sweep spec JSON, as bssweep preset prints (default: the small preset)")
	hours := fs.Int("hours", 24, "stop after this many virtual hours (0: run until signalled)")
	rotate := fs.Duration("rotate", time.Hour, "segment rotation window (virtual time)")
	addr := fs.String("serve-addr", "127.0.0.1:9464", "HTTP address for /metrics, /debug/pprof, /reports and /healthz (port 0 picks an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound HTTP address to this file once listening (lets scripts discover an ephemeral port)")
	window := fs.Duration("window", time.Hour, "report window width (virtual time)")
	slide := fs.Duration("window-slide", 0, "window stride; 0 means tumbling (= width), smaller values give sliding windows and must divide the width")
	keep := fs.Int("windows-keep", 24, "closed windows retained in memory and as report_window_metric recency slots")
	reports := fs.String("window-reports", "traffic", "comma-separated registry reports evaluated per window")
	retain := fs.Duration("retain", 0, "delete raw segments entirely older than this horizon behind the newest data (virtual time; 0 keeps everything)")
	compactRun := fs.Int("compact-run", 0, "minimum run of small adjacent segments worth merging (0 = default)")
	compactSmall := fs.Int("compact-small", 0, "segments under this many entries are compactable (0 = default)")
	maintainEvery := fs.Duration("maintain-every", 2*time.Second, "wall-clock period of compaction/retention passes")
	stepFlag := fs.Duration("step", 15*time.Minute, "virtual time advanced per service loop iteration")
	pace := fs.Duration("pace", 20*time.Millisecond, "wall-clock sleep between loop iterations (0 runs virtual time as fast as possible)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *hours < 0:
		return fmt.Errorf("-hours must not be negative (0 runs until signalled)")
	case *stepFlag <= 0:
		return fmt.Errorf("-step must be positive")
	case *addr == "":
		return fmt.Errorf("-serve-addr must not be empty")
	}
	if err := cmdutil.RejectNegative(fs, "rotate", "window", "window-slide", "windows-keep",
		"retain", "compact-run", "compact-small", "maintain-every", "pace"); err != nil {
		return err
	}
	spec, err := loadSpec(*specFile)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM turn into context cancellation: the loop stops at the
	// next step boundary and every store seals its active segment, so a
	// killed bsmon never leaves an unsealed (bsanalyze-rejected) segment.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Telemetry handles resolve at construction time, so instrumentation
	// must be on before any store, driver, or world exists.
	cmdutil.EnableAllMetrics()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	// Durable window retention: every closed window appends one JSON line.
	// Raw segments expire on the -retain horizon; these rolled-up report
	// results are what remains of the expired time range.
	windowLog, err := os.OpenFile(filepath.Join(*outDir, "windows.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open window log: %w", err)
	}
	defer windowLog.Close()
	logEnc := json.NewEncoder(windowLog)

	names := strings.FieldsFunc(*reports, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	meas, err := sweep.Start(spec, spec.Seed)
	if err != nil {
		return err
	}
	w := meas.World
	wd, err := report.NewWindowedDriver(report.WindowOptions{
		Width:   *window,
		Slide:   *slide,
		Keep:    *keep,
		Reports: names,
		Opts:    spec.ReportOptions(w),
		Dedup:   true,
		OnClose: func(res report.WindowResult) error { return logEnc.Encode(res) },
	})
	if err != nil {
		return err
	}

	// Wiring, after the warm-up: every monitor tees its raw stream into its
	// own segment store and into one shared UnifySink, which orders and
	// flags the merged stream (Sec. IV-B) before the windowed driver sees it.
	uni := ingest.NewUnifySink(wd)
	stores, err := sweep.OpenMonitorStores(*outDir, w.Monitors, ingest.SegmentOptions{Rotation: *rotate}, uni)
	if err != nil {
		return fmt.Errorf("%w; use a fresh -out directory", err)
	}
	maintainers := make([]*ingest.Maintainer, len(stores))
	for i, store := range stores {
		maintainers[i] = ingest.NewMaintainer(store, ingest.MaintainOptions{
			Interval:   *maintainEvery,
			Compaction: ingest.CompactionPolicy{MinRun: *compactRun, SmallEntries: *compactSmall},
			Retention:  ingest.RetentionPolicy{MaxAge: *retain},
		})
	}
	defer func() {
		// Whatever goes wrong, stop maintenance before sealing stores so no
		// background pass races the deferred Close, then seal.
		for _, mt := range maintainers {
			if mt != nil {
				mt.Close()
			}
		}
		for _, store := range stores {
			store.Close()
		}
	}()

	srv, err := cmdutil.ServeOps(*addr, map[string]http.Handler{
		"/reports": reportsHandler(wd),
		"/healthz": healthzHandler(maintainers),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "bsmon: serving on http://%s (/metrics /reports /healthz)\n", srv.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}

	// The service loop: advance virtual time one step, optionally pace
	// against the wall clock, check for capture failures, repeat until the
	// signal context cancels or the optional -hours bound is reached.
	bound := time.Duration(*hours) * time.Hour
	var elapsed time.Duration
	var pacer *time.Ticker
	if *pace > 0 {
		pacer = time.NewTicker(*pace)
		defer pacer.Stop()
	}
loop:
	for ctx.Err() == nil && (bound <= 0 || elapsed < bound) {
		step := *stepFlag
		if rem := bound - elapsed; bound > 0 && rem < step {
			step = rem
		}
		meas.Advance(step)
		elapsed += step
		for i, m := range w.Monitors {
			if err := m.SinkErr(); err != nil {
				return fmt.Errorf("monitor %s: capture: %w", m.Name, err)
			}
			if err := maintainers[i].Err(); err != nil {
				return fmt.Errorf("monitor %s: maintenance: %w", m.Name, err)
			}
		}
		if pacer != nil {
			select {
			case <-ctx.Done():
				break loop
			case <-pacer.C:
			}
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "bsmon: signal received — shutting down cleanly")
	}

	// Orderly shutdown, in this order: 1. seal every store (the active
	// segment becomes a sealed, queryable segment) and surface any latched
	// capture error; 2. flush the unifier's final timestamp batch into the
	// windowed driver and finalize the still-open windows (marked partial);
	// 3. close each Maintainer, which runs one final compaction/retention
	// pass over the now-complete segment set.
	if err := sweep.SealMonitorStores(w.Monitors, stores); err != nil {
		return err
	}
	if err := uni.Flush(); err != nil {
		return fmt.Errorf("unify flush: %w", err)
	}
	results, err := wd.Close()
	if err != nil {
		return err
	}
	var totalStats ingest.MaintainStats
	for i, mt := range maintainers {
		if err := mt.Close(); err != nil {
			return fmt.Errorf("monitor %s: final maintenance: %w", w.Monitors[i].Name, err)
		}
		totalStats = totalStats.Add(mt.Stats())
		maintainers[i] = nil // the deferred cleanup must not double-close
	}
	fmt.Printf("bsmon: served %s of virtual time, %d windows closed (%d retained), maintenance: %+v\n",
		elapsed, wd.Snapshot().ClosedTotal, len(results), totalStats)
	return nil
}

// loadSpec returns the one run the sweep spec at path expands to, or the
// small preset when path is empty. A replay is driven to exhaustion in one
// call and cannot be stepped, so it is refused.
func loadSpec(path string) (sweep.ScenarioSpec, error) {
	if path == "" {
		return sweep.DefaultSpec(), nil
	}
	sw, err := sweep.LoadSweep(path)
	if err != nil {
		return sweep.ScenarioSpec{}, err
	}
	runs, err := sweep.Expand(sw)
	switch {
	case err != nil:
		return sweep.ScenarioSpec{}, err
	case len(runs) != 1:
		return sweep.ScenarioSpec{}, fmt.Errorf("-spec %s expands to %d runs; the daemon runs exactly one", path, len(runs))
	case runs[0].Spec.ReplayMode():
		return sweep.ScenarioSpec{}, fmt.Errorf("-spec %s replays a recorded workload; the daemon runs synthetic worlds only", path)
	}
	return runs[0].Spec, nil
}

// reportsHandler serves the windowed driver's state as JSON: retained
// closed windows plus live numbers for the still-open ones.
func reportsHandler(wd *report.WindowedDriver) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(wd.Snapshot())
	})
}

// healthzHandler reports service health: 200 with maintenance totals while
// every background loop is clean, 500 with the first error otherwise. It
// deliberately reads only mutex-guarded state — monitor sink errors are
// owned by the simulation loop and surface through it.
func healthzHandler(maintainers []*ingest.Maintainer) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		var stats ingest.MaintainStats
		for _, mt := range maintainers {
			if err := mt.Err(); err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
				return
			}
			stats = stats.Add(mt.Stats())
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(map[string]any{"status": "ok", "maintenance": stats})
	})
}
