package main

import (
	"fmt"
	"time"

	"bitswapmon/internal/dht"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/node"
	"bitswapmon/internal/obs"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/workload"
)

// workloadDef is one benchmark workload. All four are closed-loop batch
// jobs with a single caller, generated and driven from one goroutine.
type workloadDef struct {
	name string
	// why records the reason the workload was chosen (BENCHMARK.json).
	why string
	// unit is what throughput_per_s counts per second of wall_s.
	unit string
	run  func(v *env) error
}

var workloads = []workloadDef{
	{
		name: "scenario_serial",
		why:  "the paper's main experiment on the serial engine: engine, dht and bitswap are over 98 % of wall, so a pipeline change must show no change here",
		unit: "simulated node-hours",
		run:  func(v *env) error { return runScenario(v, "serial") },
	},
	{
		name: "capture_analyze",
		why:  "no engine at all: segment write, segment read, unifier and every registry report do all the work, with write beside read so a codec trade-off shows",
		unit: "input entries",
		run:  runCaptureAnalyze,
	},
	{
		name: "replay_direct",
		why:  "the engine as a serial pump of dumb pool nodes with ingest reading and writing in one loop: an engine-delivery gain shows, a protocol gain does not",
		unit: "input entries",
		run:  runReplayDirect,
	},
	{
		name: "live_windows",
		why:  "the daemon wiring: push UnifySink, per-window reports and compaction beside the writer, so converging batch and streaming paths cannot silently slow it",
		unit: "input entries",
		run:  runLiveWindows,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scenarioSpec is sweep.DefaultSpec at the benchmark's population and
// window, without the post-window probes.
func scenarioSpec(sz sizes, engineName string) sweep.ScenarioSpec {
	spec := sweep.DefaultSpec()
	spec.Nodes = sz.ScenarioNodes
	spec.Window = sweep.D(sz.ScenarioWindow)
	spec.Warmup = sweep.D(sz.ScenarioWarmup)
	spec.Probes = false
	spec.Engine = engineName
	if engineName == "sharded" {
		spec.Shards = 2
	}
	return spec
}

// scenarioWorldSeed is the seed of the one world scenario_serial simulates,
// whatever the run's seed. The work a 400-node world does in a fixed window
// follows its seed (0.82 M to 1.36 M deliveries over seeds 1–64, and wall_s
// with them), as do its trace volume and bytes per entry, so runs of
// different worlds cannot be held to one bound. The traced run reports
// engine.delivered: a commit that changes how the simulation consumes random
// numbers changes this world's work, and that count shows it.
const scenarioWorldSeed = 42

// runScenario is the path sweep.ExecuteRun takes for a synthetic run, with
// workload.Build as set-up: warm up, switch every monitor to a segment
// store plus OnlineStats, run the window, seal, and stream the stores
// through the unifier into every registry report.
func runScenario(v *env, engineName string) error {
	spec := scenarioSpec(v.sz, engineName)
	var w *workload.World
	err := v.setup(func() error {
		cfg, err := spec.WorkloadConfig(scenarioWorldSeed)
		if err != nil {
			return err
		}
		return v.span("build", func() (err error) {
			w, err = workload.Build(cfg)
			return err
		})
	})
	if err != nil {
		return err
	}
	if len(w.Monitors) != len(monitorNames) {
		return fmt.Errorf("scenario built %d monitors, want %d", len(w.Monitors), len(monitorNames))
	}
	v.res.Units = float64(spec.Nodes) * (spec.Warmup.Std() + spec.Window.Std()).Hours()

	var stores []*ingest.SegmentStore
	stats := make([]*ingest.OnlineStats, len(w.Monitors))
	var unified int
	var results report.Results
	err = v.timed(func() error {
		if err := v.span("warmup", func() error { w.Run(spec.Warmup.Std()); return nil }); err != nil {
			return err
		}
		var err error
		if stores, err = v.openStores("scenario", ingest.SegmentOptions{}); err != nil {
			return err
		}
		for i, m := range w.Monitors {
			m.ResetTrace()
			stats[i] = ingest.NewOnlineStats(ingest.StatsOptions{Bucket: time.Hour})
			m.SetSink(ingest.Tee(v.sink(clockWrite, stores[i]), v.sink(clockStats, stats[i])))
		}
		// ExecuteRun samples monitor coverage and the ground-truth online
		// population on this tick; the timers stay so the event load is
		// the same, though nothing here reads the samples.
		sampler := monitor.NewSampler(w.Net, w.Monitors, spec.SampleEvery.Std())
		sampler.Start()
		var online []int
		var trackOnline func()
		trackOnline = func() {
			online = append(online, w.OnlineCount())
			w.Net.After(spec.SampleEvery.Std(), trackOnline)
		}
		w.Net.After(spec.SampleEvery.Std(), trackOnline)
		if err := v.span("run", func() error { w.Run(spec.Window.Std()); return nil }); err != nil {
			return err
		}
		sampler.Stop()
		if err := v.seal(stores); err != nil {
			return err
		}
		for _, m := range w.Monitors {
			if err := m.SinkErr(); err != nil {
				return fmt.Errorf("monitor %s sink: %w", m.Name, err)
			}
		}
		mega := make(map[simnet.NodeID]bool)
		for _, g := range w.Gateways {
			if g.Operator == "megagate" {
				mega[g.Node.ID] = true
			}
		}
		unified, results, err = v.analyze(stores, registryReports(), report.Options{
			Geo:            w.Geo,
			GatewayIDs:     w.GatewayNodeIDs(),
			MegagateIDs:    mega,
			BootstrapIters: spec.BootstrapIters,
		})
		return err
	})
	if err != nil {
		return err
	}

	var tapped int64
	for _, st := range stats {
		tapped += st.Entries()
	}
	if _, err := v.checkPipeline("scenario", stores, int(tapped), unified, summaryEntries(results)); err != nil {
		return err
	}
	if v.mode == modeTimed {
		return nil
	}

	delivered, dropped := w.Net.Stats()
	if v.mode == modeSharded {
		v.shardedLayers(delivered)
		return nil
	}
	L := v.res.Layers
	v.engineLayers(delivered, dropped, v.spans["warmup"]+v.spans["run"])
	L["workload.build_s"] = v.spans["build"].Seconds()
	L["engine.warmup_s"] = v.spans["warmup"].Seconds()
	L["engine.run_s"] = v.spans["run"].Seconds()

	nodes := make([]*node.Node, 0, len(w.Nodes)+len(w.Gateways)+len(w.Monitors))
	for _, sn := range w.Nodes {
		nodes = append(nodes, sn.N)
	}
	var gwRequests, gwHits, gwMisses uint64
	for _, g := range w.Gateways {
		nodes = append(nodes, g.Node)
		st := g.Stats()
		gwRequests += st.Requests
		gwHits += st.CacheHits
		gwMisses += st.CacheMisses
	}
	for _, m := range w.Monitors {
		nodes = append(nodes, m.Node)
	}
	var lookups, rpcs, timeouts uint64
	var wantHaves, blocks, dupBlocks, abandoned, resolved uint64
	for _, nd := range nodes {
		l, r, t := nd.DHT.Stats()
		lookups, rpcs, timeouts = lookups+l, rpcs+r, timeouts+t
		bs := nd.Bitswap.Stats()
		wantHaves += bs.WantHavesSent
		blocks += bs.BlocksReceived
		dupBlocks += bs.DuplicateBlocks
		abandoned += bs.AbandonedWants
		resolved += bs.ResolvedWants
	}
	L["dht.lookups"] = float64(lookups)
	L["dht.rpcs"] = float64(rpcs)
	L["dht.timeouts"] = float64(timeouts)
	L["dht.rpcs_per_lookup"] = ratio(float64(rpcs), float64(lookups))
	L["bitswap.want_haves_sent"] = float64(wantHaves)
	L["bitswap.blocks_received"] = float64(blocks)
	L["bitswap.duplicate_block_share"] = ratio(float64(dupBlocks), float64(blocks))
	L["bitswap.abandoned_want_share"] = ratio(float64(abandoned), float64(abandoned+resolved))
	L["gateway.requests"] = float64(gwRequests)
	L["gateway.cache_hit_ratio"] = ratio(float64(gwHits), float64(gwHits+gwMisses))

	if L["dht.crawl_s"], err = crawlProbe(w); err != nil {
		return err
	}
	L["engine.ring_ns_per_event"], err = ringProbe()
	return err
}

// engineLayers records the engine and monitor-tap counters shared by the
// two workloads that run an engine. busy is the wall time of the public
// calls that advanced it.
func (v *env) engineLayers(delivered, dropped uint64, busy time.Duration) {
	L := v.res.Layers
	L["engine.delivered"] = float64(delivered)
	L["engine.dropped"] = float64(dropped)
	L["engine.ns_per_delivery"] = ratio(float64(busy.Nanoseconds()), float64(delivered))
	L["monitor.entries_tapped"] = float64(v.res.EntriesStored)
	L["monitor.entries_per_delivery"] = ratio(float64(v.res.EntriesStored), float64(delivered))
}

// shardedLayerNames are the metrics the extra sharded rep contributes.
var shardedLayerNames = []string{
	"engine.sharded_delivered", "engine.windows", "engine.events_per_window",
	"engine.cross_shard_send_ratio", "engine.barrier_wait_share", "engine.shard_imbalance",
}

// shardedLayers reads the sharded engine's own counters. On a 2-core host
// its wall time is not repeatable, so the counts are what later issues are
// judged on; the parent turns the wall into engine.sharded_wall_ratio.
func (v *env) shardedLayers(delivered uint64) {
	snap := obs.Default.Snapshot()
	var events, maxEvents, barrier float64
	shards := 0
	for {
		label := fmt.Sprintf(`{shard="%d"}`, shards)
		n, ok := snap["engine_shard_events_total"+label]
		if !ok {
			break
		}
		shards++
		events += n
		maxEvents = max(maxEvents, n)
		barrier += snap["engine_shard_barrier_wait_seconds_sum"+label]
	}
	L := v.res.Layers
	L["engine.sharded_delivered"] = float64(delivered)
	L["engine.windows"] = snap["engine_windows_total"]
	L["engine.events_per_window"] = ratio(events, snap["engine_windows_total"])
	L["engine.cross_shard_send_ratio"] = ratio(snap["engine_cross_shard_sends_total"], snap["engine_sends_total"])
	busy := (v.spans["warmup"] + v.spans["run"]).Seconds()
	L["engine.barrier_wait_share"] = ratio(barrier, busy*float64(shards))
	L["engine.shard_imbalance"] = ratio(maxEvents*float64(shards), events)
}

// crawlProbe times one dht.Crawl of the built world from a fresh client.
func crawlProbe(w *workload.World) (float64, error) {
	id := simnet.RandomNodeID(w.Net.NewRand("bench-crawler"))
	nd, err := node.New(w.Net, id, "202.0.1.1:4001", simnet.RegionOther, node.Config{Mode: dht.ModeClient})
	if err != nil {
		return 0, err
	}
	done := false
	t0 := time.Now()
	dht.Crawl(nd.DHT, w.Bootstrap, 16, func(dht.CrawlResult) { done = true })
	w.Run(10 * time.Minute)
	if !done {
		return 0, fmt.Errorf("crawl probe did not finish in 10 virtual minutes")
	}
	return time.Since(t0).Seconds(), nil
}

// ringNode bounces every message to the next node of a ring: a handler
// that does nothing, so the probe times the engine alone.
type ringNode struct {
	net        engine.Engine
	self, next simnet.NodeID
}

func (r *ringNode) HandleMessage(simnet.NodeID, any) { _ = r.net.Send(r.self, r.next, 0) }
func (r *ringNode) PeerConnected(simnet.NodeID)      {}
func (r *ringNode) PeerDisconnected(simnet.NodeID)   {}

// ringProbe is the isolation probe for the engine: 64 nodes in a ring, one
// message in flight per node, pure Send and deliver. Its ns per event times
// a workload's deliveries bounds what an engine-only change can save there.
func ringProbe() (float64, error) {
	const n, events = 64, 400_000
	sn := simnet.New(feedEpoch, 1, simnet.Fixed(5*time.Millisecond))
	var net engine.Engine = sn
	ring := make([]*ringNode, n)
	for i := range ring {
		ring[i] = &ringNode{net: net, self: simnet.DeriveNodeID([]byte{byte(i), 0xee})}
		if err := sn.AddNode(ring[i].self, "10.0.0.1:4001", simnet.RegionUS, 0, ring[i]); err != nil {
			return 0, err
		}
	}
	for i, r := range ring {
		r.next = ring[(i+1)%n].self
		if err := net.Connect(r.self, r.next); err != nil {
			return 0, err
		}
	}
	for _, r := range ring {
		if err := net.Send(r.self, r.next, 0); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	var delivered uint64
	for delivered < events {
		net.Run(time.Second)
		delivered, _ = net.Stats()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(delivered), nil
}

// runCaptureAnalyze is the bsmon hot path followed by the bsanalyze path:
// each monitor's stream is written through Tee(SegmentStore, OnlineStats)
// and sealed, then both stores are queried, unified and run through every
// registry report.
func runCaptureAnalyze(v *env) error {
	var f *feed
	var stores []*ingest.SegmentStore
	err := v.setup(func() (err error) {
		if f, err = genFeed(v.seed, v.sz, v.sz.CaptureRequests, v.sz.CaptureSpan); err != nil {
			return err
		}
		stores, err = v.openStores("capture", ingest.SegmentOptions{})
		return err
	})
	if err != nil {
		return err
	}
	v.res.Units = float64(f.entries)

	var unified int
	var results report.Results
	err = v.timed(func() error {
		for m, store := range stores {
			stats := ingest.NewOnlineStats(ingest.StatsOptions{Bucket: time.Hour})
			sink := ingest.Tee(v.sink(clockWrite, store), v.sink(clockStats, stats))
			for _, e := range f.mon[m] {
				if err := sink.Write(e); err != nil {
					return err
				}
			}
		}
		if err := v.seal(stores); err != nil {
			return err
		}
		var err error
		unified, results, err = v.analyze(stores, registryReports(), report.Options{
			Geo:         f.geo,
			GatewayIDs:  f.gatewayIDs,
			MegagateIDs: f.megagateIDs,
		})
		return err
	})
	if err != nil {
		return err
	}
	v.looseClocks = []string{clockWrite, clockStats}

	if _, err := v.checkPipeline("capture", stores, f.entries, unified, summaryEntries(results)); err != nil {
		return err
	}
	s := results.Get("summary").(*report.SummaryResult).Summary
	v.check(s.UniquePeers == f.uniquePeers, "summary unique peers %d, generator %d", s.UniquePeers, f.uniquePeers)
	v.check(s.UniqueCIDs == f.uniqueCIDs, "summary unique CIDs %d, generator %d", s.UniqueCIDs, f.uniqueCIDs)
	return nil
}

// runReplayDirect replays the two stores a capture produces through the
// replay world into fresh stores, then summarises them: the engine pumps
// dumb pool nodes while ingest reads and writes in the same loop.
func runReplayDirect(v *env) error {
	var f *feed
	var sess *replay.Session
	var stores []*ingest.SegmentStore
	err := v.setup(func() (err error) {
		if f, err = genFeed(v.seed, v.sz, v.sz.ReplayRequests, v.sz.CaptureSpan); err != nil {
			return err
		}
		inputs, err := v.openStores("input", ingest.SegmentOptions{})
		if err != nil {
			return err
		}
		paths := make([]string, len(inputs))
		for m, in := range inputs {
			for _, e := range f.mon[m] {
				if err := in.Write(e); err != nil {
					return err
				}
			}
			if err := in.Close(); err != nil {
				return err
			}
			paths[m] = v.storeDir("input", monitorNames[m])
		}
		err = v.span("prepare", func() (err error) {
			sess, err = replay.Prepare(replay.Spec{Mode: replay.ModeDirect, Inputs: paths, TimeWarp: 1, Seed: v.seed})
			return err
		})
		if err != nil {
			return err
		}
		if stores, err = v.openStores("replayed", ingest.SegmentOptions{}); err != nil {
			return err
		}
		byName := make(map[string]ingest.Sink, len(stores))
		for m, name := range monitorNames {
			byName[name] = v.sink(clockWrite, stores[m])
		}
		sess.World.SetSinks(func(name string) ingest.Sink { return byName[name] })
		return nil
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	v.res.Units = float64(f.entries)

	var drive *replay.DriveStats
	var unified int
	var results report.Results
	err = v.timed(func() error {
		err := v.span("drive", func() (err error) {
			drive, err = sess.Drive()
			return err
		})
		if err != nil {
			return err
		}
		if err := v.seal(stores); err != nil {
			return err
		}
		unified, results, err = v.analyze(stores, []string{"summary", "traffic"}, report.Options{})
		return err
	})
	if err != nil {
		return err
	}

	if _, err := v.checkPipeline("replayed", stores, f.entries, unified, summaryEntries(results)); err != nil {
		return err
	}
	v.check(drive.Events == f.entries, "replay drove %d events, input has %d", drive.Events, f.entries)
	for m, name := range monitorNames {
		got := stores[m].Totals().PerMonitor[name]
		v.check(got == len(f.mon[m]), "replay recorded %d entries at %s, input has %d", got, name, len(f.mon[m]))
	}
	if !v.traced {
		return nil
	}
	L := v.res.Layers
	delivered, dropped := sess.World.Net.Stats()
	v.engineLayers(delivered, dropped, v.spans["drive"])
	L["engine.run_s"] = v.spans["drive"].Seconds()
	L["replay.prepare_s"] = v.spans["prepare"].Seconds()
	L["replay.drive_s"] = v.spans["drive"].Seconds()
	L["replay.ns_per_event"] = ratio(float64(v.spans["drive"].Nanoseconds()), float64(drive.Events))
	L["replay.requesters"] = float64(drive.Requesters)
	return nil
}

// runLiveWindows is the bsmon -serve wiring fed from a generated stream:
// entries in global time order go into Tee(SegmentStore, UnifySink(
// WindowedDriver)) while a synchronous maintenance pass compacts both
// stores at a fixed entry stride, as the daemon's Maintainer does beside
// the writer.
func runLiveWindows(v *env) error {
	var f *feed
	var merged []trace.Entry
	var stores []*ingest.SegmentStore
	var wd *report.WindowedDriver
	var uni *ingest.UnifySink
	sinks := make(map[string]ingest.Sink, len(monitorNames))

	var windowEntries, windowSummaryEntries int
	var windowClosed bool
	var closeMax time.Duration
	err := v.setup(func() (err error) {
		if f, err = genFeed(v.seed, v.sz, v.sz.LiveRequests, v.sz.LiveSpan); err != nil {
			return err
		}
		merged = f.merged()
		if stores, err = v.openStores("live", ingest.SegmentOptions{Rotation: liveRotation}); err != nil {
			return err
		}
		wd, err = report.NewWindowedDriver(report.WindowOptions{
			Width:   liveWidth,
			Slide:   liveSlide,
			Keep:    24,
			Reports: []string{"summary", "traffic", "online", "popularity"},
			Opts:    report.Options{Geo: f.geo, GatewayIDs: f.gatewayIDs},
			Dedup:   true,
			OnClose: func(res report.WindowResult) error {
				windowEntries += res.Entries
				windowSummaryEntries += int(res.Metrics["summary"]["entries"])
				windowClosed = true
				return nil
			},
		})
		if err != nil {
			return err
		}
		var dst ingest.Sink = wd
		if v.traced {
			dst = &timedSink{dst: wd, c: v.clock(clockObserve), max: &closeMax, mark: &windowClosed}
		}
		uni = ingest.NewUnifySink(dst)
		for m, name := range monitorNames {
			sinks[name] = ingest.Tee(v.sink(clockWrite, stores[m]), v.sink(clockUnifySink, uni))
		}
		return nil
	})
	if err != nil {
		return err
	}
	v.res.Units = float64(f.entries)

	var maintained ingest.MaintainStats
	maintain := func() error {
		return v.span("maintain", func() error {
			for _, s := range stores {
				st, err := s.Maintain(ingest.MaintainOptions{Compaction: ingest.CompactionPolicy{MinRun: liveMinRun}})
				if err != nil {
					return err
				}
				maintained = maintained.Add(st)
			}
			return nil
		})
	}
	err = v.timed(func() error {
		for i, e := range merged {
			if err := sinks[e.Monitor].Write(e); err != nil {
				return err
			}
			if (i+1)%v.sz.MaintainEvery == 0 {
				if err := maintain(); err != nil {
					return err
				}
			}
		}
		// Shut down in the daemon's order: seal, flush the unifier's last
		// batch, finalize the open windows, one last maintenance pass.
		if err := v.seal(stores); err != nil {
			return err
		}
		err := v.span("finalize", func() error {
			if err := uni.Flush(); err != nil {
				return err
			}
			_, err := wd.Close()
			return err
		})
		if err != nil {
			return err
		}
		return maintain()
	})
	if err != nil {
		return err
	}
	v.looseClocks = []string{clockWrite, clockUnifySink}

	perEntry := int(liveWidth / liveSlide)
	raw, err := v.checkPipeline("live", stores, f.entries, windowEntries/perEntry, windowSummaryEntries/perEntry)
	if err != nil {
		return err
	}
	snap := wd.Snapshot()
	v.check(windowEntries == perEntry*f.entries, "windows observed %d entries, want %d × %d", windowEntries, perEntry, f.entries)
	v.check(snap.LateEntries == 0, "%d late entries", snap.LateEntries)
	for m := range stores {
		v.check(sameEntries(raw[m], f.mon[m]), "query of %s after compaction differs from what was written", monitorNames[m])
	}
	if !v.traced {
		return nil
	}
	L := v.res.Layers
	L["ingest.unifysink_self_s"] = (v.clock(clockUnifySink).d - v.clock(clockObserve).d).Seconds()
	L["ingest.maintain_s"] = v.spans["maintain"].Seconds()
	L["ingest.compactions"] = float64(maintained.Compactions)
	L["report.window_close_max_ms"] = float64(closeMax.Microseconds()) / 1e3
	L["report.windows_closed"] = float64(snap.ClosedTotal)
	L["report.late_entries"] = float64(snap.LateEntries)
	return nil
}

// summaryEntries is the summary report's entry count.
func summaryEntries(results report.Results) int {
	return results.Get("summary").(*report.SummaryResult).Summary.Entries
}
