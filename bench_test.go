package bitswapmon_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. One expensive measurement run is shared across benchmarks;
// each benchmark then re-executes its analysis step per iteration and
// reports the reproduced quantities as benchmark metrics, so `go test
// -bench=. -benchmem` prints the shapes the paper reports. The same
// artifacts rendered as one text report are a run's report.txt
// (bssweep preset small | bssweep run), whose small week scenario is pinned
// byte for byte by pinnedWeekReport in internal/sweep/pin_test.go.
//
// Absolute counts are scaled (the substrate is a simulator, not the public
// IPFS network); the shapes — who dominates, by what factor, what gets
// rejected — are the reproduction targets.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"bitswapmon/internal/attacks"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/cmdutil"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/estimate"
	"bitswapmon/internal/geoip"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/node"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
	"bitswapmon/internal/workload"
)

// weekRun is the shared measurement run — the window, the crawl and the
// probes — with what its monitors streamed: each monitor's own entries, and
// the UnifySink's unified and deduplicated views of them.
type weekRun struct {
	*sweep.Measurement
	crawl      dht.CrawlResult
	probes     []attacks.ProbeResult
	perMonitor [2][]trace.Entry
	unified    []trace.Entry
	dedup      []trace.Entry
}

var (
	weekOnce sync.Once
	weekData *weekRun
	weekErr  error
)

// maybeEnableMetrics turns on every subsystem's obs instrumentation when
// BSMON_BENCH_METRICS is set, so cmd/bsbench can measure the same benchmark
// bare and instrumented in separate processes (the enable is process-global
// and one-way). The hot-path benchmarks call it before constructing their
// subjects, since telemetry handles resolve at construction.
func maybeEnableMetrics() {
	if os.Getenv("BSMON_BENCH_METRICS") != "" {
		cmdutil.EnableAllMetrics()
	}
}

// sharedWeek runs the main measurement scenario once per process.
func sharedWeek(b *testing.B) *weekRun {
	b.Helper()
	weekOnce.Do(func() { weekData, weekErr = collectWeek() })
	if weekErr != nil {
		b.Fatal(weekErr)
	}
	return weekData
}

func collectWeek() (*weekRun, error) {
	raw, unified := ingest.NewMemorySink(), ingest.NewMemorySink()
	uni := ingest.NewUnifySink(unified)
	spec := sweep.DefaultSpec()
	meas, err := sweep.Measure(spec, spec.Seed, func(w *workload.World) error {
		for _, m := range w.Monitors {
			m.SetSink(ingest.Tee(raw, uni))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	run := &weekRun{Measurement: meas}
	if run.crawl, err = sweep.Crawl(meas.World); err != nil {
		return nil, err
	}
	run.probes = sweep.ProbeGateways(meas.World)
	for _, m := range meas.World.Monitors {
		if err := m.SinkErr(); err != nil {
			return nil, fmt.Errorf("monitor %s sink: %w", m.Name, err)
		}
	}
	if err := uni.Flush(); err != nil {
		return nil, err
	}
	run.unified = unified.Snapshot()
	run.dedup = trace.Deduplicated(run.unified)
	for _, e := range raw.Snapshot() {
		i := 0
		if e.Monitor == meas.World.Monitors[1].Name {
			i = 1
		}
		run.perMonitor[i] = append(run.perMonitor[i], e)
	}
	return run, nil
}

// BenchmarkFig3PeerIDUniformity regenerates Fig. 3: the QQ comparison of a
// monitor's peer IDs against the uniform distribution.
func BenchmarkFig3PeerIDUniformity(b *testing.B) {
	d := sharedWeek(b)
	var fig sweep.Fig3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = sweep.ComputeFig3(d.World.Monitors[0], 100)
	}
	b.ReportMetric(fig.KS, "KS-dist-to-uniform")
	b.ReportMetric(float64(fig.Peers), "peers")
}

// BenchmarkSecVCNetworkSize regenerates the Sec. V-C panel: coverage and the
// Eq. (1)/(3) size estimates vs crawl and ground truth.
func BenchmarkSecVCNetworkSize(b *testing.B) {
	d := sharedWeek(b)
	var sec sweep.SecVC
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sec = sweep.ComputeSecVC(d.World.Monitors, d.Samples, d.crawl, d.OnlineAvg, d.World.TotalPopulation())
	}
	b.ReportMetric(sec.Eq1Mean, "eq1-estimate")
	b.ReportMetric(sec.Eq3Mean, "eq3-estimate")
	b.ReportMetric(sec.TrueOnlineAvg, "true-online")
	b.ReportMetric(float64(sec.CrawlSeen), "crawl-seen")
	b.ReportMetric(100*sec.CoverageUnion, "coverage-union-pct")
}

// BenchmarkFig4RequestTypes regenerates Fig. 4: the WANT_BLOCK → WANT_HAVE
// transition over an upgrade wave. This one needs its own scenario: each
// iteration executes the upgrade run and buckets the raw requests of its
// store by day.
func BenchmarkFig4RequestTypes(b *testing.B) {
	spec := sweep.UpgradeSpec(80, 2)
	spec.Seed = 7
	var fig *report.Fig4
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(b.TempDir(), "upgrade")
		if _, err := sweep.ExecuteRun(dir, sweep.Run{ID: "upgrade", Seed: spec.Seed, Spec: spec}); err != nil {
			b.Fatal(err)
		}
		sources, cleanup, err := ingest.OpenInputs([]string{filepath.Join(dir, "mon-us.segments")})
		if err != nil {
			b.Fatal(err)
		}
		drv := report.NewDriver(false)
		if err := drv.AddByName([]string{"fig4"}, report.Options{Bucket: 24 * time.Hour}); err != nil {
			b.Fatal(err)
		}
		err = drv.Run(ingest.NewStreamUnifier(sources...))
		cleanup()
		if err != nil {
			b.Fatal(err)
		}
		results, err := drv.Finalize()
		if err != nil {
			b.Fatal(err)
		}
		fig = results.Get("fig4").(*report.Fig4)
	}
	early, late := fig.Buckets[1], fig.Buckets[len(fig.Buckets)-2]
	b.ReportMetric(float64(early.WantBlock), "early-want-block")
	b.ReportMetric(float64(early.WantHave), "early-want-have")
	b.ReportMetric(float64(late.WantBlock), "late-want-block")
	b.ReportMetric(float64(late.WantHave), "late-want-have")
}

// runReport streams the entries through one registered report and returns
// its result: the measured path of the per-figure benchmarks below.
func runReport(b *testing.B, name string, opts report.Options, entries []trace.Entry) report.Result {
	b.Helper()
	drv := report.NewDriver(true)
	if err := drv.AddByName([]string{name}, opts); err != nil {
		b.Fatal(err)
	}
	if err := drv.Run(ingest.SliceSource(entries)); err != nil {
		b.Fatal(err)
	}
	results, err := drv.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	return results.Get(name)
}

// BenchmarkTable1Multicodec regenerates Table I: multicodec shares of raw
// requests.
func BenchmarkTable1Multicodec(b *testing.B) {
	d := sharedWeek(b)
	var tab *report.Table1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab = runReport(b, "table1", report.Options{}, d.unified).(*report.Table1)
	}
	for _, row := range tab.Rows {
		switch row.Codec {
		case "DagProtobuf":
			b.ReportMetric(100*row.Share, "dagpb-share-pct")
		case "Raw":
			b.ReportMetric(100*row.Share, "raw-share-pct")
		case "DagCBOR":
			b.ReportMetric(100*row.Share, "dagcbor-share-pct")
		}
	}
}

// BenchmarkTable2Countries regenerates Table II: request shares by country.
func BenchmarkTable2Countries(b *testing.B) {
	d := sharedWeek(b)
	var tab *report.Table2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab = runReport(b, "table2", report.Options{Geo: d.World.Geo}, d.unified).(*report.Table2)
	}
	for _, row := range tab.Rows {
		switch row.Country {
		case simnet.RegionUS:
			b.ReportMetric(100*row.Share, "US-share-pct")
		case simnet.RegionNL:
			b.ReportMetric(100*row.Share, "NL-share-pct")
		case simnet.RegionDE:
			b.ReportMetric(100*row.Share, "DE-share-pct")
		}
	}
}

// BenchmarkFig5Popularity regenerates Fig. 5: RRP/URP ECDFs plus the CSN
// power-law rejection.
func BenchmarkFig5Popularity(b *testing.B) {
	d := sharedWeek(b)
	var fig *report.Fig5
	opts := report.Options{
		BootstrapIters: 20,
		Rand:           func() *rand.Rand { return d.World.Net.NewRand("bench-fig5") },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = runReport(b, "fig5", opts, d.unified).(*report.Fig5)
	}
	b.ReportMetric(100*fig.URPShare1, "urp-share1-pct")
	b.ReportMetric(fig.URP.PValue, "urp-pvalue")
	b.ReportMetric(boolMetric(fig.URP.Rejected), "urp-rejected")
	b.ReportMetric(float64(fig.CIDs), "cids")
}

// BenchmarkFig6GatewayRates regenerates Fig. 6: deduplicated request rates
// by origin group.
func BenchmarkFig6GatewayRates(b *testing.B) {
	d := sharedWeek(b)
	var fig *report.Fig6
	opts := report.Options{
		GatewayIDs:  d.World.GatewayNodeIDs(),
		MegagateIDs: d.World.MegagateIDs(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = runReport(b, "fig6", opts, d.unified).(*report.Fig6)
	}
	gw, mg, ng := fig.Totals()
	b.ReportMetric(gw, "gateway-req-per-s")
	b.ReportMetric(mg, "megagate-req-per-s")
	b.ReportMetric(ng, "non-gateway-req-per-s")
}

// reportBenchFeed builds the synthetic unified feed of the report-driver
// benchmarks — n entries, 50 per virtual second (a heavy aggregated feed),
// each from a peer drawn from a pool of 2,300 (about the distinct peers of
// a 15 m pane of the live feed), 4 096 CIDs, every fifth entry flagged a
// rebroadcast — and the options every registered report can be constructed
// from.
func reportBenchFeed(b *testing.B, n int) ([]trace.Entry, report.Options) {
	b.Helper()
	geo := geoip.New()
	addrs := make([]string, 512)
	regions := geo.Countries()
	for i := range addrs {
		addr, err := geo.Allocate(regions[i%len(regions)])
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = addr
	}
	cids := make([]cid.CID, 4096)
	for i := range cids {
		cids[i] = cid.Sum(cid.DagProtobuf, []byte{byte(i), byte(i >> 8), 0xab})
	}
	base := time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))
	entries := make([]trace.Entry, n)
	for i := range entries {
		p := rng.Intn(2300)
		var id simnet.NodeID
		id[0], id[1] = byte(p), byte(p>>8)
		entries[i] = trace.Entry{
			Timestamp: base.Add(time.Duration(i) * 20 * time.Millisecond),
			Monitor:   "us",
			NodeID:    id,
			Addr:      addrs[i%len(addrs)],
			Type:      wire.EntryType(i%3 + 1),
			CID:       cids[(i*i)%len(cids)],
		}
		if i%5 == 0 {
			entries[i].Flags = trace.FlagRebroadcast
		}
	}
	gateways := make(map[simnet.NodeID]bool)
	for i := 0; i < 8; i++ {
		var id simnet.NodeID
		id[0] = byte(i)
		gateways[id] = true
	}
	return entries, report.Options{
		Geo:            geo,
		GatewayIDs:     gateways,
		MegagateIDs:    map[simnet.NodeID]bool{},
		BootstrapIters: 5, // keep the fig5/popularity bootstrap off the critical path
		// latency_breakdown refuses to construct without a span recorder;
		// an empty tracer keeps "every registered report" true (its Observe
		// is a no-op, so it costs one virtual call per entry).
		Tracer: otrace.New(otrace.Config{Sample: 1, Seed: 42}),
	}
}

// BenchmarkReportDriver measures the unified analysis surface end to end:
// every registered report attached to one Driver, one pass over ~1M
// synthetic entries. The events/sec metric is the throughput of "all
// figures at once" — the bsanalyze and live-experiment hot path.
func BenchmarkReportDriver(b *testing.B) {
	maybeEnableMetrics()
	const entryCount = 1 << 20
	entries, opts := reportBenchFeed(b, entryCount)
	names := report.Names()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		drv := report.NewDriver(true)
		if err := drv.AddByName(names, opts); err != nil {
			b.Fatal(err)
		}
		if err := drv.Run(ingest.SliceSource(entries)); err != nil {
			b.Fatal(err)
		}
		if _, err := drv.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
	if wall := time.Since(start); wall > 0 {
		b.ReportMetric(float64(entryCount)*float64(b.N)/wall.Seconds(), "events/sec")
	}
	b.ReportMetric(float64(len(names)), "reports")
}

// BenchmarkWindowedDriver measures the daemon's report path: the bsmon
// report set over 1 h windows sliding by 15 m, so every entry falls in
// four overlapping windows. Every report observes it once, in its 15 m
// pane, and a window closes — merging four panes, popularity bootstrap
// included — every 45 000 entries. ~3 h of feed, a dozen closes.
func BenchmarkWindowedDriver(b *testing.B) {
	maybeEnableMetrics()
	const entryCount = 1 << 19
	entries, opts := reportBenchFeed(b, entryCount)
	wopts := report.WindowOptions{
		Width:   time.Hour,
		Slide:   15 * time.Minute,
		Reports: []string{"summary", "traffic", "online", "popularity"},
		Opts:    opts,
		Dedup:   true,
	}
	var closed int
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		wd, err := report.NewWindowedDriver(wopts)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			if err := wd.Write(e); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := wd.Close(); err != nil {
			b.Fatal(err)
		}
		closed = int(wd.Snapshot().ClosedTotal)
	}
	if wall := time.Since(start); wall > 0 {
		b.ReportMetric(float64(entryCount)*float64(b.N)/wall.Seconds(), "events/sec")
	}
	b.ReportMetric(float64(closed), "windows")
}

// BenchmarkSecVIBGatewayProbe regenerates the Sec. VI-B probing experiment:
// gateways identified and node IDs discovered.
func BenchmarkSecVIBGatewayProbe(b *testing.B) {
	d := sharedWeek(b)
	var identified, total, correct int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		identified, total, correct = attacks.CrossReference(d.probes, d.World.Registry.NodeIDs())
	}
	b.ReportMetric(float64(len(d.probes)), "gateways-probed")
	b.ReportMetric(float64(identified), "gateways-identified")
	b.ReportMetric(float64(total), "node-ids-found")
	b.ReportMetric(float64(correct), "node-ids-correct")
}

// BenchmarkSecVIAAttacks regenerates the Sec. VI-A attack primitives over
// the shared trace: IDW index construction and TNW profiling.
func BenchmarkSecVIAAttacks(b *testing.B) {
	d := sharedWeek(b)
	var idx *attacks.IDWIndex
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx = attacks.BuildIDW(d.dedup)
	}
	b.StopTimer()
	hot := d.World.Catalog.Items[0]
	b.ReportMetric(float64(idx.CIDCount()), "indexed-cids")
	b.ReportMetric(float64(len(idx.UniqueWanters(hot.Root))), "hot-item-wanters")
}

// --- Ablations (design-space knobs from Sec. IV-C) -------------------------

// runAblation builds a scenario with the given joint connectivity and XOR
// bias, returning the Eq. (1) estimation error against ground truth.
func runAblation(b *testing.B, joint workload.JointConnectivity, xorBias float64, seed int64) (estErr float64) {
	b.Helper()
	w, err := workload.Build(workload.Config{
		Seed:  seed,
		Nodes: 250,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		Joint:    &joint,
		XORBias:  xorBias,
		Gateways: []workload.OperatorSpec{},
	})
	if err != nil {
		b.Fatal(err)
	}
	sampler := monitor.NewSampler(w.Net, w.Monitors, time.Hour)
	sampler.Start()
	w.Run(8 * time.Hour)
	sampler.Stop()

	var est, truth float64
	n := 0
	for _, s := range sampler.Samples() {
		if s.Intersection == 0 {
			continue
		}
		e, err := estimate.Pairwise(float64(s.PerMonitor[0]), float64(s.PerMonitor[1]), float64(s.Intersection))
		if err != nil {
			continue
		}
		est += e
		n++
	}
	if n == 0 {
		b.Fatal("no usable samples")
	}
	est /= float64(n)
	truth = float64(w.OnlineCount())
	return (est - truth) / truth
}

// BenchmarkAblationIndependentMonitors measures estimator error under the
// uniform-independent assumption (estimators should be nearly unbiased).
func BenchmarkAblationIndependentMonitors(b *testing.B) {
	var errFrac float64
	for i := 0; i < b.N; i++ {
		errFrac = runAblation(b, workload.IndependentJoint(0.5, 0.5), 0, 100+int64(i))
	}
	b.ReportMetric(100*errFrac, "est-error-pct")
}

// BenchmarkAblationCorrelatedMonitors measures estimator error under the
// paper-calibrated correlated connectivity (underestimation expected).
func BenchmarkAblationCorrelatedMonitors(b *testing.B) {
	var errFrac float64
	for i := 0; i < b.N; i++ {
		errFrac = runAblation(b, workload.DefaultJoint(), 0, 200+int64(i))
	}
	b.ReportMetric(100*errFrac, "est-error-pct")
}

// BenchmarkAblationXORBias measures estimator error when monitor
// connectivity is biased by XOR proximity (Sec. IV-C caveat).
func BenchmarkAblationXORBias(b *testing.B) {
	var errFrac float64
	for i := 0; i < b.N; i++ {
		errFrac = runAblation(b, workload.IndependentJoint(0.6, 0.6), 2.0, 300+int64(i))
	}
	b.ReportMetric(100*errFrac, "est-error-pct")
}

// BenchmarkAblationDedupWindows measures how much of the raw trace the 5s/31s
// windows remove (the paper: re-broadcasts alone are >50% of requests).
func BenchmarkAblationDedupWindows(b *testing.B) {
	d := sharedWeek(b)
	var dedup []trace.Entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unified := trace.Unify(d.perMonitor[0], d.perMonitor[1])
		dedup = trace.Deduplicated(unified)
	}
	share := 1 - float64(len(dedup))/float64(len(d.unified))
	b.ReportMetric(100*share, "removed-pct")
}

// --- Microbenchmarks of the hot paths --------------------------------------

// BenchmarkTraceUnify measures the trace unification pipeline itself.
func BenchmarkTraceUnify(b *testing.B) {
	d := sharedWeek(b)
	t1, t2 := d.perMonitor[0], d.perMonitor[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Unify(t1, t2)
	}
	b.ReportMetric(float64(len(t1)+len(t2)), "entries")
}

// BenchmarkStreamUnify measures the online unifier over the same input as
// BenchmarkTraceUnify: same flags out, but sliding-window state instead of
// a global sort.
func BenchmarkStreamUnify(b *testing.B) {
	maybeEnableMetrics()
	d := sharedWeek(b)
	t1, t2 := d.perMonitor[0], d.perMonitor[1]
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		u := ingest.NewStreamUnifier(ingest.SliceSource(t1), ingest.SliceSource(t2))
		for {
			if _, err := u.Read(); err != nil {
				break
			}
			n++
		}
	}
	b.ReportMetric(float64(len(t1)+len(t2)), "entries")
	if n != b.N*(len(t1)+len(t2)) {
		b.Fatalf("stream unifier dropped entries: %d", n)
	}
}

// BenchmarkIngestSegmentStore measures the streaming capture path: entries
// written through a rotating segment store (the bsmon hot path). The
// retained-heap metric demonstrates the tentpole property — resident
// memory stays bounded by one segment's buffers while the on-disk trace
// grows with b.N — unlike the seed's accumulate-in-RAM collection, whose
// footprint grows linearly with simulated hours.
func BenchmarkIngestSegmentStore(b *testing.B) {
	maybeEnableMetrics()
	dir := b.TempDir()
	store, err := ingest.OpenSegmentStore(filepath.Join(dir, "bench"), ingest.SegmentOptions{Rotation: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
	var id simnet.NodeID
	cids := make([]cid.CID, 512)
	for i := range cids {
		cids[i] = cid.Sum(cid.DagProtobuf, []byte{byte(i), byte(i >> 8)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id[0], id[1] = byte(i), byte(i>>8)
		e := trace.Entry{
			// 10 entries per virtual second: one segment per 36k entries.
			Timestamp: base.Add(time.Duration(i) * 100 * time.Millisecond),
			Monitor:   "us",
			NodeID:    id,
			Addr:      "3.0.0.1:4001",
			Type:      wire.EntryType(i%3 + 1),
			CID:       cids[i%len(cids)],
		}
		if err := store.Write(e); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	tot := store.Totals()
	if tot.Entries != b.N {
		b.Fatalf("store holds %d entries, wrote %d", tot.Entries, b.N)
	}
	b.ReportMetric(float64(len(store.Segments())), "segments")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "retained-heap-MB")
}

// maybeBenchTracer returns a span recorder when BSMON_BENCH_TRACE is set, so
// cmd/bsbench can measure the replay drive untraced and traced in separate
// processes — the traced-vs-untraced column of BENCH_engine.json.
func maybeBenchTracer() *otrace.Tracer {
	if os.Getenv("BSMON_BENCH_TRACE") == "" {
		return nil
	}
	return otrace.New(otrace.Config{Sample: 0.25, Seed: 42})
}

// BenchmarkReplayDrive measures the trace-driven replay path end to end:
// events streamed from an on-disk segment store through the unifier and
// re-issued into a replay world. The events/sec metric is the replay
// subsystem's throughput from disk to monitor-side observation.
func BenchmarkReplayDrive(b *testing.B) {
	maybeEnableMetrics()
	tracer := maybeBenchTracer()
	dir := filepath.Join(b.TempDir(), "replay-bench.segments")
	store, err := ingest.OpenSegmentStore(dir, ingest.SegmentOptions{})
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
	cids := make([]cid.CID, 256)
	for i := range cids {
		cids[i] = cid.Sum(cid.Raw, []byte{byte(i), byte(i >> 8), 0xbe})
	}
	const events = 20000
	for i := 0; i < events; i++ {
		var id simnet.NodeID
		id[0] = byte(i % 64)
		e := trace.Entry{
			// 20 events per virtual second over ~17 virtual minutes.
			Timestamp: base.Add(time.Duration(i) * 50 * time.Millisecond),
			Monitor:   "us",
			NodeID:    id,
			Addr:      "3.0.0.1:4001",
			Type:      wire.EntryType(i%2 + 1),
			CID:       cids[i%len(cids)],
		}
		if err := store.Write(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sess, err := replay.Prepare(replay.Spec{
			Mode:     replay.ModeDirect,
			Inputs:   []string{dir},
			TimeWarp: 60,
			Seed:     int64(i),
			Tracer:   tracer,
		})
		if err != nil {
			b.Fatal(err)
		}
		stats, err := sess.Drive()
		if err != nil {
			b.Fatal(err)
		}
		sess.Close()
		if stats.Events != events {
			b.Fatalf("replayed %d events, wrote %d", stats.Events, events)
		}
		// Start each iteration from empty rings: a saturated ring degrades
		// Record to a drop-counter bump, which would understate the cost.
		tracer.Reset()
	}
	if wall := time.Since(start); wall > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/wall.Seconds(), "events/sec")
	}
}

// BenchmarkCrawl measures one full DHT crawl over the shared world.
func BenchmarkCrawl(b *testing.B) {
	maybeEnableMetrics()
	d := sharedWeek(b)
	var res dht.CrawlResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := simnet.RandomNodeID(d.World.Net.NewRand("bench-crawler"))
		nd, err := node.New(d.World.Net, id, "202.0.1.1:4001", simnet.RegionOther, node.Config{Mode: dht.ModeClient})
		if err != nil {
			b.Fatal(err)
		}
		done := false
		dht.Crawl(nd.DHT, d.World.Bootstrap, 16, func(r dht.CrawlResult) {
			res = r
			done = true
		})
		d.World.Run(10 * time.Minute)
		if !done {
			b.Fatal("crawl incomplete")
		}
	}
	b.ReportMetric(float64(len(res.Seen)), "peers-seen")
	b.ReportMetric(float64(len(res.Responded)), "servers-responded")
}

// BenchmarkClosest measures the routing-table query a DHT server runs for
// every FIND_NODE / GET_PROVIDERS it answers: one AppendClosest(target, k)
// per iteration over random targets into a reused buffer, on tables filled
// from 400 and from 20 000 random server IDs (the benchmark scenario's
// population and fifty times it; a k-bucket table keeps about k·log2(N/k)
// of them).
func BenchmarkClosest(b *testing.B) {
	for _, ids := range []int{400, 20000} {
		b.Run(fmt.Sprintf("ids-%d", ids), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			tab := simnet.NewTable(nil, nil)
			register := func(id simnet.NodeID) simnet.NodeRef {
				if err := tab.AddNode(id, "", simnet.RegionOther, 0, nil); err != nil {
					b.Fatal(err)
				}
				r, _ := tab.Ref(id)
				return r
			}
			rt := dht.NewRoutingTable(tab, register(simnet.RandomNodeID(rng)), dht.DefaultK)
			for i := 0; i < ids; i++ {
				rt.Add(register(simnet.RandomNodeID(rng)), true)
			}
			targets := make([]simnet.NodeID, 1024)
			for i := range targets {
				targets[i] = simnet.RandomNodeID(rng)
			}
			got := make([]simnet.NodeRef, 0, dht.DefaultK)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got = rt.AppendClosest(got[:0], targets[i%len(targets)], dht.DefaultK)
			}
			b.StopTimer()
			if len(got) != dht.DefaultK {
				b.Fatalf("AppendClosest returned %d peers, want %d", len(got), dht.DefaultK)
			}
			b.ReportMetric(float64(rt.Size()), "table-peers")
		})
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// --- Engine benchmarks -----------------------------------------------------

// ringNode bounces every received message to the next node in a ring,
// keeping a constant number of messages in flight: a pure event-loop
// workload (heap ops, latency sampling, delivery) with trivial handlers.
type ringNode struct {
	net  *simnet.Network
	self simnet.NodeID
	next simnet.NodeID
}

func (r *ringNode) HandleMessage(from simnet.NodeID, msg any) { _ = r.net.Send(r.self, r.next, msg) }
func (r *ringNode) PeerConnected(simnet.NodeID)               {}
func (r *ringNode) PeerDisconnected(simnet.NodeID)            {}

// BenchmarkSimnetEventLoop measures raw serial event-loop throughput:
// ns/op is the cost of one delivered message end to end (schedule, heap
// pop, revalidate, handler, reschedule).
func BenchmarkSimnetEventLoop(b *testing.B) {
	maybeEnableMetrics()
	start := time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
	net := simnet.New(start, 1, simnet.Fixed(5*time.Millisecond))
	const n = 128
	nodes := make([]*ringNode, n)
	ids := make([]simnet.NodeID, n)
	for i := range nodes {
		ids[i] = simnet.DeriveNodeID([]byte{byte(i), byte(i >> 8), 0xee})
		nodes[i] = &ringNode{net: net, self: ids[i]}
		if err := net.AddNode(ids[i], "10.0.0.1:4001", simnet.RegionUS, 0, nodes[i]); err != nil {
			b.Fatal(err)
		}
	}
	for i := range nodes {
		nodes[i].next = ids[(i+1)%n]
		if err := net.Connect(ids[i], nodes[i].next); err != nil {
			b.Fatal(err)
		}
	}
	for i := range nodes {
		if err := net.Send(ids[i], nodes[i].next, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	delivered0, _ := net.Stats()
	for {
		delivered, _ := net.Stats()
		if delivered-delivered0 >= uint64(b.N) {
			break
		}
		net.Run(time.Second)
	}
}

// sinkNode ignores everything it hears.
type sinkNode struct{}

func (sinkNode) HandleMessage(simnet.NodeID, any) {}
func (sinkNode) PeerConnected(simnet.NodeID)      {}
func (sinkNode) PeerDisconnected(simnet.NodeID)   {}

// BenchmarkSimnetBroadcast measures the send path of every Bitswap
// broadcast round (session start and each 30 s rebroadcast): one
// SendEachRef from a hub to its 600 peers, plus draining the deliveries so
// the heap stays at one round's size.
func BenchmarkSimnetBroadcast(b *testing.B) {
	start := time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
	net := simnet.New(start, 1, nil)
	const n = 600
	hub := simnet.DeriveNodeID([]byte("hub"))
	if err := net.AddNode(hub, "10.0.0.1:4001", simnet.RegionUS, 0, sinkNode{}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := simnet.DeriveNodeID([]byte{byte(i), byte(i >> 8), 0xcd})
		if err := net.AddNode(id, "10.0.0.2:4001", simnet.RegionUS, 0, sinkNode{}); err != nil {
			b.Fatal(err)
		}
		if err := net.Connect(hub, id); err != nil {
			b.Fatal(err)
		}
	}
	ref, _ := net.Ref(hub)
	msg := &struct{}{}
	sent := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SendEachRef(otrace.Ctx{}, "", ref, msg, func(simnet.NodeRef) { sent++ })
		net.Run(time.Second)
	}
	if delivered, _ := net.Stats(); sent != n*b.N || delivered != uint64(sent) {
		b.Fatalf("sent %d, delivered %d, want %d each", sent, delivered, n*b.N)
	}
}

// denseConfig returns a traffic-dense population used by the engine scaling
// benchmarks and the cross-engine speedup test: high request rates and
// degree keep every shard busy, which is the regime where the sharded
// engine's parallelism pays for its window synchronization.
func denseConfig(seed int64, nodes int, newEngine func(start time.Time, seed int64) engine.Engine) workload.Config {
	return workload.Config{
		Seed:                seed,
		Nodes:               nodes,
		NewEngine:           newEngine,
		MeanRequestsPerHour: 30,
		DegreeTarget:        20,
		ActiveFrac:          0.6,
		CatalogItems:        2000,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		Gateways: []workload.OperatorSpec{},
	}
}

// TestShardedSpeedup asserts the point of the parallel engine: with real
// cores available, four shards beat the serial engine's wall-clock on a
// traffic-dense scenario. The comparison only means something on quiet
// multi-core hardware, so it skips without parallelism (NumCPU < 4), under
// the race detector's serialization, and on shared CI runners with noisy
// neighbors; BenchmarkEngineScaling measures the same thing everywhere
// without a pass/fail verdict.
func TestShardedSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("NumCPU=%d: no parallelism to measure", runtime.NumCPU())
	}
	if engine.RaceEnabled {
		t.Skip("race detector serializes execution; wall-clock comparison meaningless")
	}
	if os.Getenv("CI") != "" {
		t.Skip("shared CI runners are too noisy for wall-clock assertions")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const nodes = 1500
	const window = 10 * time.Minute
	run := func(ne func(time.Time, int64) engine.Engine) time.Duration {
		w, err := workload.Build(denseConfig(42, nodes, ne))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		w.Run(window)
		return time.Since(start)
	}
	serial := run(nil)
	sharded := run(engine.ShardedFactory(4))
	t.Logf("serial=%v sharded-4=%v speedup=%.2fx", serial, sharded, float64(serial)/float64(sharded))
	if sharded >= serial {
		t.Errorf("sharded-4 (%v) did not beat serial (%v) with %d CPUs",
			sharded, serial, runtime.NumCPU())
	}
}

// benchEngineScaling runs the dense scaling scenario; each iteration is 30
// simulated seconds. Delivered messages per wall second is the engine's
// effective throughput; it is reported both under its historical name and
// as events/sec, the spelling bsbench records.
func benchEngineScaling(b *testing.B, nodes int, newEngine func(time.Time, int64) engine.Engine) {
	w, err := workload.Build(denseConfig(42, nodes, newEngine))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	w.Run(time.Duration(b.N) * 30 * time.Second)
	wall := time.Since(start)
	delivered, _ := w.Net.Stats()
	if wall > 0 {
		b.ReportMetric(float64(delivered)/wall.Seconds(), "delivered/wallsec")
		b.ReportMetric(float64(delivered)/wall.Seconds(), "events/sec")
	}
}

// BenchmarkEngineScaling compares the serial reference (one shard) against
// 2/4/8/16/32 shards on a traffic-dense 2000-node population (the "large
// benchmark scenario"). With >= 4 CPUs four shards beat serial wall-clock;
// on fewer cores the sub-benchmarks instead bound the synchronization
// overhead. The 100k-node population exercises the dense node table and
// the per-shard heaps at the paper's network scale; it is skipped under
// -short and on low-CPU machines, where it would only measure swap.
func BenchmarkEngineScaling(b *testing.B) {
	b.Logf("NumCPU=%d", runtime.NumCPU())
	b.Run("serial", func(b *testing.B) { benchEngineScaling(b, 2000, nil) })
	for _, shards := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("sharded-%d", shards), func(b *testing.B) {
			benchEngineScaling(b, 2000, engine.ShardedFactory(shards))
		})
	}
	b.Run("sharded-8-100k", func(b *testing.B) {
		if testing.Short() {
			b.Skip("100k-node population skipped in -short mode")
		}
		if runtime.NumCPU() < 8 {
			b.Skipf("100k-node population needs >= 8 CPUs, have %d", runtime.NumCPU())
		}
		benchEngineScaling(b, 100_000, engine.ShardedFactory(8))
	})
}
