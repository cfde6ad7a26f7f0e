// Package bitswapmon reproduces "Monitoring Data Requests in Decentralized
// Data Storage Systems: A Case Study of IPFS" (ICDCS 2022): a passive
// Bitswap monitoring methodology, its trace-processing pipeline, network
// size estimators, content-popularity analysis and privacy attacks, all
// running against a faithful discrete-event simulation of an IPFS-like
// network.
//
// Capture scales past RAM through the internal/ingest streaming pipeline:
// monitors write observations into sinks (segment stores, live report
// drivers) instead of accumulating them, and analyses read the trace back
// one segment at a time. There is one way from a scenario spec to its
// reports: every bounded run — the paper's week and Fig. 4 upgrade
// scenarios are presets (bssweep preset), a replayed trace is a
// workload_source spec — is a sweep.ScenarioSpec executed by
// sweep.ExecuteRun. A spec's world keys are those of workload.Config, which
// it embeds, and its workload_source keys those of replay.Spec, so each
// parameter is declared once. It measures the world with sweep.Measure (or
// sweep.MeasureReplay), crawls the DHT and probes the gateways if the spec
// asks, unifies the monitors' segment stores with one ingest.StreamUnifier
// pass through every report, and leaves summary.json and report.txt in the
// run directory; trace.Unify remains as the reference the streaming
// unifier is tested against. Entries are stamped with the engine's exact per-event clock
// (Engine.EventTime) on either engine. A segment is a BSTRACE2 stream
// (internal/trace):
// per record a timestamp delta, type and flags, and a reference each for the
// monitor, the (node ID, address) pair and the CID into per-stream
// dictionaries of at most 65 536 literals, cleared by writer and reader at
// the same count. What dictionary coding leaves is mostly first-occurrence
// hashes, so the stream is deflated at gzip.BestSpeed: 21.9 bytes per entry
// against 33.5 for full records at level 6, written three times as fast.
//
// Capture also scales past a bounded run: bsmon is the
// continuous-monitoring daemon. It starts a one-run sweep spec (-spec,
// default the small preset) with sweep.Start, the build and discarded
// warm-up every sweep run goes through, then advances it step by step, so a
// bounded daemon records the same entries as a sweep run of the same spec,
// into the same DIR/mon-M.segments layout. Registry reports are evaluated
// over rolling windows of the live stream
// (report.WindowedDriver, one report.Driver per window, published as the
// report_window_metric gauge family and served as JSON on /reports), while
// an ingest.Maintainer compacts small sealed segments into generation-2
// segments and expires raw data behind a retention horizon — rolled-up
// window results stay durable after their raw segments are gone, and
// SIGTERM always leaves sealed, reopenable stores.
//
// Analysis is registry-driven: every table and figure is a streaming
// internal/report Report (Observe one entry, Finalize a Result), and a
// Driver tees a single pass — over files, segment stores, a live
// simulation, or one window of the daemon's stream — through any named
// combination. Whoever compares numbers reads them the same way, through a
// Result's Metrics() map: the per-window gauges and /reports, and sweep
// summaries, whose summary.json holds each metric once, by name. Adding a
// metric means registering a report; bsanalyze, sweeps and the daemon pick
// it up by name.
//
// Runtime telemetry lives in internal/obs: a dependency-free metrics layer
// (counters, gauges, histograms, labeled families) with Prometheus text
// exposition. The engine, ingest, sweep and report hot paths are
// instrumented behind nil-safe handles, and the long-running commands serve
// /metrics plus /debug/pprof (bssweep -metrics-addr, bsmon -serve-addr).
//
// Per-request causal visibility comes from internal/otrace: a virtual-time
// span recorder whose contexts propagate workload → gateway → DHT → Bitswap
// → engine delivery, with deterministic seeded head-sampling (serial and
// sharded engines trace the same requests). Traces export as
// Perfetto-loadable Chrome trace-event JSON plus JSONL (bssweep run
// -trace), and feed the latency_breakdown streaming report — per-stage
// virtual-time latency distributions for every sampled request.
//
// See README.md for the layout, commands and package map. The root package
// only hosts the benchmark harness (bench_test.go), which regenerates every
// table and figure of the paper.
package bitswapmon
