// Package bitswapmon reproduces "Monitoring Data Requests in Decentralized
// Data Storage Systems: A Case Study of IPFS" (ICDCS 2022): a passive
// Bitswap monitoring methodology, its trace-processing pipeline, network
// size estimators, content-popularity analysis and privacy attacks, all
// running against a faithful discrete-event simulation of an IPFS-like
// network.
//
// Capture scales past RAM through the internal/ingest streaming pipeline:
// monitors write observations into the sink they are given (segment
// stores, live report drivers; a monitor without one records nothing)
// instead of accumulating them, and analyses read the trace back
// one segment at a time. There is one way from a scenario spec to its
// reports: every bounded run — the paper's week and Fig. 4 upgrade
// scenarios are presets (bssweep preset), a replayed trace is a
// workload_source spec — is a sweep.ScenarioSpec executed by
// sweep.ExecuteRun. A spec's world keys are those of workload.Config, which
// it embeds, and its workload_source keys those of replay.Spec, so each
// parameter is declared once. It measures the world with sweep.Measure (or
// sweep.MeasureReplay), seals the monitors' segment stores as the window
// ends, then crawls the DHT and probes the gateways if the spec asks, so a
// run's stores hold its window and nothing after it. It unifies the stores
// with one ingest.StreamUnifier pass through every report, appends the
// world-side panels (Sec. V-C, Fig. 3, the probe line) to that pass's
// results, and leaves summary.json and report.txt in the run directory; trace.Unify remains as the reference the streaming
// unifier is tested against. Entries are stamped with the engine's exact per-event clock
// (Engine.EventTime). A segment is a BSTRACE2 stream
// (internal/trace):
// per record a timestamp delta, type and flags, and a reference each for the
// monitor, the (node ID, address) pair and the CID into per-stream
// dictionaries of at most 65 536 literals, cleared by writer and reader at
// the same count. What dictionary coding leaves is mostly first-occurrence
// hashes, so the stream is deflated at gzip.BestSpeed: 21.9 bytes per entry
// against 33.5 for full records at level 6, written three times as fast.
// The codec works one step beside its caller: trace.Writer codes records on
// the caller's goroutine and deflates one 16 KiB chunk at a time on another,
// and trace.Reader inflates and decodes 512-entry batches on one goroutine
// ahead of Read. The bytes are those of a codec on the caller's goroutine,
// and a decode error still arrives after exactly the entries before it.
// Because that goroutine uses the codec's file, a codec is closed before its
// source: the Writer or Reader first, then the file.
//
// Capture also scales past a bounded run: bsmon is the
// continuous-monitoring daemon. It starts a one-run sweep spec (-spec,
// default the small preset) with sweep.Start, the build and unrecorded
// warm-up every sweep run goes through, then advances it step by step, so a
// bounded daemon records the same entries as a sweep run of the same spec,
// into the same DIR/mon-M.segments layout. The reports are evaluated over
// rolling windows of the live stream (report.WindowedDriver: the open
// windows are one start-ordered run, each holding a report.Driver over its
// first slide-wide pane, and a closing window merges the later panes into
// its own, exactly, since every report merges; published as the report_window_metric gauge family and served
// as JSON on /reports), while
// an ingest.Maintainer compacts small sealed segments into generation-2
// segments and expires raw data behind a retention horizon — rolled-up
// window results stay durable after their raw segments are gone, and
// SIGTERM always leaves sealed, reopenable stores.
//
// Analysis is report-driven: every table and figure is a streaming
// internal/report Report (Observe one entry, Finalize a Result), built by
// name from one fixed table of constructors, and a Driver tees a single
// pass — over files, segment stores, a live simulation, or one window of
// the daemon's stream — through any named combination. Whoever compares numbers reads them the same way, through a
// Result's Metrics() map: the per-window gauges and /reports, and sweep
// summaries, whose summary.json holds each metric once, by name. Adding a
// metric means adding a report to that table; bsanalyze, sweeps and the
// daemon pick it up by name.
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
// sharded engines trace the same requests). The runner attaches the one
// recorder of a traced run (a sweep spec with "trace": true) to the world's
// network as it builds the world, and every layer reaches it there. At the
// run's end the spans must nest, each synchronous span within its parent's
// time bounds, or the run fails; they export as Perfetto-loadable Chrome
// trace-event JSON plus JSONL, and feed the latency_breakdown streaming
// report — per-stage virtual-time latency distributions for every sampled
// request (examples/tracing.json walks through one traced run).
//
// See README.md for the layout, commands and package map. The root package
// only hosts the benchmark harness (bench_test.go), which regenerates every
// table and figure of the paper.
package bitswapmon
