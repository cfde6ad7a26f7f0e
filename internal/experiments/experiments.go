// Package experiments orchestrates full reproduction runs: sweep.Measure
// operates the monitoring pipeline over the measurement window with the
// report drivers attached as the monitors' live sinks, and this package
// adds what the paper does after the window — the DHT crawl, gateway
// probing, Fig. 3 and the Sec. V-C panel — and renders every table and
// figure of the evaluation. The cmd/bsexperiments binary, the benchmark
// harness and the integration tests all share this code.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"bitswapmon/internal/attacks"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/node"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/workload"
)

// DenseConfig returns a traffic-dense population used by the engine scaling
// benchmarks and the cross-engine speedup test: high request rates and
// degree keep every shard busy, which is the regime where the sharded
// engine's parallelism pays for its window synchronization.
func DenseConfig(seed int64, nodes int, newEngine func(start time.Time, seed int64) engine.Engine) workload.Config {
	return workload.Config{
		Seed:                seed,
		Nodes:               nodes,
		NewEngine:           newEngine,
		MeanRequestsPerHour: 30,
		DegreeTarget:        20,
		ActiveFrac:          0.6,
		Catalog:             workload.CatalogConfig{Items: 2000},
		Monitors: []workload.MonitorSpec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		Operators: []workload.OperatorSpec{},
	}
}

// WeekReport carries every artifact computed from the main scenario. The
// trace-derived artifacts are internal/report results, produced by one
// streaming pass, live during the run.
type WeekReport struct {
	Fig3us Fig3
	SecVC  SecVC
	Tab1   *report.Table1
	Tab2   *report.Table2
	Fig5   *report.Fig5
	Fig6   *report.Fig6

	// Latency is the span-driven per-stage latency breakdown, present only
	// when the spec enabled tracing; Tracer is the recorder that produced
	// it, kept so callers can export the raw spans (Perfetto/JSONL).
	Latency *report.LatencyBreakdown
	Tracer  *otrace.Tracer

	// Windows holds the rolling-window traffic evaluation: the same stream
	// the full-week reports consume, cut into tumbling windows — the
	// service-mode view of the week scenario.
	Windows []report.WindowResult

	GatewaysProbed     int
	GatewaysIdentified int
	GatewayIDsFound    int
	GatewayIDsCorrect  int

	RawEntries   int
	DedupEntries int
	RebroadShare float64

	Elapsed time.Duration
}

// Data is what one measurement run leaves behind beside the entries its
// monitors streamed into the attached sink: the world with its monitors'
// peer sets, the sampler's snapshots, the end-of-window crawl and the
// gateway probes.
type Data struct {
	World     *workload.World
	Samples   []monitor.Sample
	Crawl     dht.CrawlResult
	OnlineAvg float64
	Probes    []attacks.ProbeResult
}

// CollectSpec runs the week pipeline on the scenario a declarative spec
// describes. attach is invoked with the built world after the warm-up and
// returns the sink every monitor streams into from then on: the measured
// window, then the crawl and the probes. The pipeline needs at least two
// monitors (the paper's coverage and overlap panels compare vantage
// points); the DHT crawl always runs, gateway probing obeys spec.Probes.
func CollectSpec(spec sweep.ScenarioSpec, attach func(w *workload.World) (ingest.Sink, error)) (*Data, error) {
	if len(spec.Monitors) < 2 {
		return nil, fmt.Errorf("week scenario needs at least two monitors (spec has %d)", len(spec.Monitors))
	}
	meas, err := sweep.Measure(spec, spec.Seed, func(w *workload.World) error {
		sink, err := attach(w)
		if err != nil {
			return err
		}
		for _, m := range w.Monitors {
			m.SetSink(sink)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w := meas.World

	// Crawl the DHT at the end of the window (the paper crawls repeatedly;
	// one crawl suffices for the comparison).
	crawlRes, err := crawlNetwork(w)
	if err != nil {
		return nil, err
	}

	// Gateway probing (Sec. VI-B).
	var probeResults []attacks.ProbeResult
	if spec.Probes {
		probeResults = sweep.ProbeGateways(w)
	}

	if err := sinkErr(w.Monitors); err != nil {
		return nil, err
	}
	return &Data{
		World:     w,
		Samples:   meas.Samples,
		Crawl:     crawlRes,
		OnlineAvg: meas.OnlineAvg,
		Probes:    probeResults,
	}, nil
}

// sinkErr returns the first sink error any monitor recorded.
func sinkErr(monitors []*monitor.Monitor) error {
	for _, m := range monitors {
		if err := m.SinkErr(); err != nil {
			return fmt.Errorf("monitor %s sink: %w", m.Name, err)
		}
	}
	return nil
}

// weekReports lists the report set the main scenario runs in one pass. The
// summary report is deliberately absent: nothing in WeekReport reads it,
// and its unique-peer/CID sets would be the largest resident state of the
// live path.
var weekReports = []string{"traffic", "table1", "table2", "fig5", "fig6"}

// weekDriver builds the week scenario's report driver wired to the world's
// ground truth (GeoIP, gateway fleets). Fig. 5's bootstrap RNG is derived
// from the engine only when the report finalizes, preserving the engine's
// RNG draw order no matter when the driver was attached.
func weekDriver(w *workload.World, bootstrapIters int) (*report.Driver, error) {
	opts := report.Options{
		BootstrapIters: bootstrapIters,
		Rand:           func() *rand.Rand { return w.Net.NewRand("fig5") },
		Geo:            w.Geo,
		GatewayIDs:     w.GatewayNodeIDs(),
		MegagateIDs:    w.MegagateIDs(),
	}
	d := report.NewDriver(true)
	if err := d.AddByName(weekReports, opts); err != nil {
		return nil, err
	}
	return d, nil
}

// weekReportFromResults folds one driver pass together with the world's
// ground-truth panels (Fig. 3, Sec. V-C, Sec. VI-B).
func weekReportFromResults(d *Data, results report.Results) *WeekReport {
	w := d.World
	traffic := results.Get("traffic").(*report.Traffic)
	rep := &WeekReport{
		Fig3us:       ComputeFig3(w.Monitors[0], 50),
		Tab1:         results.Get("table1").(*report.Table1),
		Tab2:         results.Get("table2").(*report.Table2),
		Fig5:         results.Get("fig5").(*report.Fig5),
		Fig6:         results.Get("fig6").(*report.Fig6),
		RawEntries:   traffic.Entries,
		DedupEntries: traffic.DedupEntries,
		RebroadShare: traffic.RebroadShare,
	}
	rep.SecVC = ComputeSecVC(w.Monitors, d.Samples, d.Crawl, d.OnlineAvg, w.TotalPopulation())
	if tr := w.Tracer(); tr != nil {
		rep.Tracer = tr
		rep.Latency = report.BreakdownFromSpans(tr.Spans(), tr.Dropped())
	}
	identified, total, correct := attacks.CrossReference(d.Probes, w.Registry.NodeIDs())
	rep.GatewaysProbed = len(d.Probes)
	rep.GatewaysIdentified = identified
	rep.GatewayIDsFound = total
	rep.GatewayIDsCorrect = correct
	return rep
}

// RunWeekSpec executes the main scenario (Sec. V-C/V-D/V-E and VI-B
// artifacts) from a declarative spec. The reports are attached to the
// monitors as live sinks — one UnifySink computes the Sec. IV-B flags online
// and tees into the report driver — so every figure is emitted without the
// trace ever becoming resident.
func RunWeekSpec(spec sweep.ScenarioSpec) (*WeekReport, error) {
	start := time.Now()
	iters := spec.BootstrapIters
	if iters <= 0 {
		iters = 30
	}
	var drv *report.Driver
	var wd *report.WindowedDriver
	var uni *ingest.UnifySink
	data, err := CollectSpec(spec, func(w *workload.World) (ingest.Sink, error) {
		d, err := weekDriver(w, iters)
		if err != nil {
			return nil, err
		}
		// Beside the full-week reports, evaluate the traffic report over
		// 6h tumbling windows of the same unified stream — the continuous-
		// monitoring view (and the report_window_metric live gauges).
		wd, err = report.NewWindowedDriver(report.WindowOptions{
			Width:   6 * time.Hour,
			Keep:    64,
			Reports: []string{"traffic"},
			Opts: report.Options{
				Geo:         w.Geo,
				GatewayIDs:  w.GatewayNodeIDs(),
				MegagateIDs: w.MegagateIDs(),
			},
			Dedup: true,
		})
		if err != nil {
			return nil, err
		}
		drv = d
		uni = ingest.NewUnifySink(ingest.Tee(d, wd))
		return uni, nil
	})
	if err != nil {
		return nil, err
	}
	if err := uni.Flush(); err != nil {
		return nil, err
	}
	results, err := drv.Finalize()
	if err != nil {
		return nil, err
	}
	windows, err := wd.Close()
	if err != nil {
		return nil, err
	}
	rep := weekReportFromResults(data, results)
	rep.Windows = windows
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// crawlNetwork runs one DHT crawl from a dedicated client node.
func crawlNetwork(w *workload.World) (dht.CrawlResult, error) {
	id := simnet.DeriveNodeID([]byte("experiment-crawler"))
	nd, err := node.New(w.Net, id, "202.0.0.1:4001", simnet.RegionOther, node.Config{Mode: dht.ModeClient})
	if err != nil {
		return dht.CrawlResult{}, fmt.Errorf("crawler node: %w", err)
	}
	var res dht.CrawlResult
	got := false
	dht.Crawl(nd.DHT, w.Bootstrap, 16, func(r dht.CrawlResult) {
		res = r
		got = true
	})
	w.Run(10 * time.Minute)
	if !got {
		return dht.CrawlResult{}, fmt.Errorf("crawl did not complete")
	}
	return res, nil
}

// Render prints the whole report.
func (r *WeekReport) Render() string {
	var sb strings.Builder
	sb.WriteString("==== Week scenario report ====\n\n")
	fmt.Fprintf(&sb, "trace: %d raw entries, %d after dedup (%.0f%% duplicates/rebroadcasts)\n\n",
		r.RawEntries, r.DedupEntries, 100*r.RebroadShare)
	sb.WriteString(r.SecVC.Render())
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "Fig. 3: %d peers, KS distance to uniform = %.4f\n\n", r.Fig3us.Peers, r.Fig3us.KS)
	sb.WriteString(r.Tab1.Render())
	sb.WriteString("\n")
	sb.WriteString(r.Tab2.Render())
	sb.WriteString("\n")
	sb.WriteString(r.Fig5.Render())
	sb.WriteString("\n")
	gw, mg, ng := r.Fig6.Totals()
	fmt.Fprintf(&sb, "Fig. 6 averages: all-gateways %.3f req/s, megagate %.3f req/s, non-gateway %.3f req/s\n",
		gw, mg, ng)
	fmt.Fprintf(&sb, "\nSec. VI-B: probed %d gateways, identified %d; discovered %d node IDs (%d correct)\n",
		r.GatewaysProbed, r.GatewaysIdentified, r.GatewayIDsFound, r.GatewayIDsCorrect)
	if r.Latency != nil {
		sb.WriteString("\n")
		sb.WriteString(r.Latency.Render())
	}
	if len(r.Windows) > 0 {
		fmt.Fprintf(&sb, "\nRolling traffic windows (%d tumbling windows):\n", len(r.Windows))
		for _, res := range r.Windows {
			m := res.Metrics["traffic"]
			fmt.Fprintf(&sb, "  [%s, %s) %6d entries, %5.1f%% rebroadcast, %4.1f%% gateway",
				res.Start.Format("01-02 15:04"), res.End.Format("15:04"),
				res.Entries, 100*m["rebroad_share"], 100*m["gateway_share"])
			if res.Partial {
				sb.WriteString("  (partial)")
			}
			sb.WriteString("\n")
		}
	}
	fmt.Fprintf(&sb, "\nwall time: %v\n", r.Elapsed.Round(time.Millisecond))
	return sb.String()
}

// UpgradeReport carries the Fig. 4 artifact.
type UpgradeReport struct {
	Fig4    *report.Fig4
	Elapsed time.Duration
}

// RunUpgrade executes a Fig. 4 scenario (sweep.UpgradeSpec): a population
// starting almost entirely on the pre-v0.5 client, upgrading in a wave
// after the release date, observed over several weeks. The fig4 report is
// attached as the monitors' live sink, so the weeks-long trace is bucketed
// as it happens and never resident.
func RunUpgrade(spec sweep.ScenarioSpec) (*UpgradeReport, error) {
	start := time.Now()
	// Fig. 4 buckets the raw request series (no dedup filter).
	drv := report.NewDriver(false)
	if err := drv.AddByName([]string{"fig4"}, report.Options{Bucket: 24 * time.Hour}); err != nil {
		return nil, err
	}
	uni := ingest.NewUnifySink(drv)
	meas, err := sweep.Measure(spec, spec.Seed, func(w *workload.World) error {
		for _, m := range w.Monitors {
			m.SetSink(uni)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := sinkErr(meas.World.Monitors); err != nil {
		return nil, err
	}
	if err := uni.Flush(); err != nil {
		return nil, err
	}
	results, err := drv.Finalize()
	if err != nil {
		return nil, err
	}
	return &UpgradeReport{
		Fig4:    results.Get("fig4").(*report.Fig4),
		Elapsed: time.Since(start),
	}, nil
}

// Render prints the report.
func (r *UpgradeReport) Render() string {
	var sb strings.Builder
	sb.WriteString("==== Upgrade (Fig. 4) scenario report ====\n\n")
	sb.WriteString(r.Fig4.Render())
	fmt.Fprintf(&sb, "\nwall time: %v\n", r.Elapsed.Round(time.Millisecond))
	return sb.String()
}
