package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"syscall"
	"time"

	"bitswapmon/internal/obs"
)

// metricDef declares one end-to-end metric: what a user of the pipeline
// sees. Bound is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef declares one per-layer metric of the traced run. Layer metrics
// explain an end-to-end change; they have no bound of their own.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is measured with metrics and tracing off, as the median over the
// reps of one run; the three times are the clock's readings × hostSpeed.
// Two things differ from the issue's list, both forced by the driver's
// rules. passed_share is 1 − failed_share: failed_share is 0 on every healthy
// run and a bound is a share of the metric's median, so the complement is
// reported and the failed count is in the result line. And the bounds on the
// times are wider: corrected run medians still spread by several per cent of
// their median on the shared 2-core host, and the driver wants a spread below
// a third of the bound.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"throughput_per_s", "1/s", higher, 0.25},
	{"peak_rss_mb", "MB", lower, 0.15},
	{"disk_bytes_per_entry", "B", lower, 0.02},
	{"passed_share", "share", higher, 0.001},
}

// perLayer lists the traced run's metrics as <module>.<metric>. Every
// workload reports every name; a layer a workload does not use reads 0.
var perLayer = func() []layerDef {
	defs := []layerDef{
		{"workload.build_s", "s", lower},

		{"engine.run_s", "s", lower},
		{"engine.warmup_s", "s", lower},
		{"engine.delivered", "count", lower},
		{"engine.dropped", "count", lower},
		{"engine.ns_per_delivery", "ns", lower},
		{"engine.cpu_share", "share", lower},
		{"engine.ring_ns_per_event", "ns", lower},

		{"engine.sharded_wall_ratio", "ratio", lower},
		{"engine.sharded_delivered", "count", lower},
		{"engine.windows", "count", lower},
		{"engine.events_per_window", "count", higher},
		{"engine.cross_shard_send_ratio", "ratio", lower},
		{"engine.barrier_wait_share", "share", lower},
		{"engine.shard_imbalance", "ratio", lower},

		{"dht.cpu_share", "share", lower},
		{"dht.lookups", "count", lower},
		{"dht.rpcs", "count", lower},
		{"dht.timeouts", "count", lower},
		{"dht.rpcs_per_lookup", "ratio", lower},
		{"dht.crawl_s", "s", lower},

		{"bitswap.cpu_share", "share", lower},
		{"bitswap.want_haves_sent", "count", lower},
		{"bitswap.blocks_received", "count", higher},
		{"bitswap.duplicate_block_share", "share", lower},
		{"bitswap.abandoned_want_share", "share", lower},

		{"gateway.cpu_share", "share", lower},
		{"gateway.requests", "count", higher},
		{"gateway.cache_hit_ratio", "ratio", higher},

		{"monitor.cpu_share", "share", lower},
		{"monitor.entries_tapped", "count", higher},
		{"monitor.entries_per_delivery", "ratio", higher},

		{"ingest.write_s", "s", lower},
		{"ingest.write_ns_per_entry", "ns", lower},
		{"ingest.write_p99_us", "us", lower},
		{"ingest.seal_s", "s", lower},
		{"ingest.stats_s", "s", lower},
		{"ingest.segments", "count", lower},
		{"ingest.disk_bytes", "B", lower},
		{"ingest.read_s", "s", lower},
		{"ingest.read_ns_per_entry", "ns", lower},
		{"ingest.unify_self_s", "s", lower},
		{"ingest.unify_ns_per_entry", "ns", lower},
		{"ingest.dup_flagged_share", "share", lower},
		{"ingest.unifysink_self_s", "s", lower},
		{"ingest.maintain_s", "s", lower},
		{"ingest.compactions", "count", lower},

		{"trace.cpu_share", "share", lower},

		{"report.observe_self_s", "s", lower},
		{"report.observe_ns_per_entry", "ns", lower},
		{"report.finalize_s", "s", lower},
	}
	for _, name := range registryReports() {
		defs = append(defs, layerDef{"report.observe_s." + name, "s", lower})
	}
	return append(defs,
		layerDef{"report.window_close_max_ms", "ms", lower},
		layerDef{"report.windows_closed", "count", higher},
		layerDef{"report.late_entries", "count", lower},

		layerDef{"replay.prepare_s", "s", lower},
		layerDef{"replay.drive_s", "s", lower},
		layerDef{"replay.ns_per_event", "ns", lower},
		layerDef{"replay.requesters", "count", higher},

		layerDef{"runtime.cpu_s", "s", lower},
		layerDef{"runtime.gc_cpu_share", "share", lower},
		layerDef{"runtime.alloc_mb", "MB", lower},
		layerDef{"runtime.allocs_per_unit", "count", lower},
		layerDef{"runtime.gc_cycles", "count", lower},

		layerDef{"harness.host_speed", "ratio", higher},
		layerDef{"harness.trace_overhead_pct", "%", lower},
		layerDef{"harness.span_coverage_pct", "%", higher},
		layerDef{"harness.pipeline_share_pct", "%", lower},
	)
}()

// runSeconds is how long one run measures by default: six or seven reps of
// 2–3 s each; runCap ends a run of shorter reps sooner.
const runSeconds = 20

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// the driver reads and the metrics the program prints cannot drift apart.
func manifestJSON() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	manifest := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []layerDef      `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		manifest.Workloads = append(manifest.Workloads, workloadEntry{w.name, w.why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	err := enc.Encode(manifest)
	return buf.Bytes(), err
}

// observeSampleStride mirrors the report driver's sampling of
// report_observe_seconds: one timed Observe per 1024 driver writes.
const observeSampleStride = 1024

// commonLayers derives the per-layer metrics every traced rep has from its
// layer clocks, spans, runtime counters and CPU profile.
func (v *env) commonLayers() error {
	L := v.res.Layers
	sec := func(d time.Duration) float64 { return d.Seconds() }
	perCall := func(c *layerClock) float64 { return ratio(float64(c.d.Nanoseconds()), float64(c.n)) }
	write, stats := v.clock(clockWrite), v.clock(clockStats)
	read, unify, observe := v.clock(clockRead), v.clock(clockUnify), v.clock(clockObserve)

	L["ingest.write_s"] = sec(write.d)
	L["ingest.write_ns_per_entry"] = perCall(write)
	L["ingest.write_p99_us"] = percentile(v.writeLat, 0.99) / 1e3
	L["ingest.seal_s"] = sec(v.spans["seal"])
	L["ingest.stats_s"] = sec(stats.d)
	L["ingest.disk_bytes"] = float64(v.res.DiskBytes)
	L["ingest.read_s"] = sec(read.d)
	L["ingest.read_ns_per_entry"] = perCall(read)
	L["ingest.unify_self_s"] = sec(unify.d - read.d)
	L["ingest.unify_ns_per_entry"] = ratio(float64((unify.d - read.d).Nanoseconds()), float64(unify.n))
	L["report.observe_self_s"] = sec(observe.d)
	L["report.observe_ns_per_entry"] = perCall(observe)
	L["report.finalize_s"] = sec(v.spans["finalize"])

	snap := obs.Default.Snapshot()
	for _, name := range registryReports() {
		L["report.observe_s."+name] = snap[`report_observe_seconds_sum{report="`+name+`"}`] * observeSampleStride
	}

	L["runtime.cpu_s"] = cpuSeconds(v.rusage1) - cpuSeconds(v.rusage0)
	L["runtime.alloc_mb"] = float64(v.mem1.TotalAlloc-v.mem0.TotalAlloc) / (1 << 20)
	L["runtime.allocs_per_unit"] = ratio(float64(v.mem1.Mallocs-v.mem0.Mallocs), v.res.Units)
	L["runtime.gc_cycles"] = float64(v.mem1.NumGC - v.mem0.NumGC)

	shares, err := cpuShares(v.profile)
	if err != nil {
		return err
	}
	for _, module := range []string{"engine", "dht", "bitswap", "gateway", "monitor", "trace"} {
		L[module+".cpu_share"] = shares[module]
	}
	L["runtime.gc_cpu_share"] = shares[bucketGC]

	covered := v.covered
	for _, c := range v.looseClocks {
		covered += v.clock(c).d
	}
	pipeline := write.d + stats.d + v.spans["seal"] + v.spans["analyze"] + v.spans["finalize"] +
		v.spans["maintain"] + v.clock(clockUnifySink).d
	wall := v.res.WallS
	L["harness.span_coverage_pct"] = 100 * ratio(sec(covered), wall)
	L["harness.pipeline_share_pct"] = 100 * ratio(sec(pipeline), wall)
	return nil
}

// cpuSeconds is the user plus system CPU time a process has used.
func cpuSeconds(r syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(r.Utime) + tv(r.Stime)
}

// sortedKeys returns m's keys in order, so output never follows map order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
