package report

import (
	"sync/atomic"

	"bitswapmon/internal/obs"
)

// reportMetrics is the streaming-analysis telemetry surface: per-report
// entry throughput, sampled Observe latency and Finalize duration for every
// Driver (a WindowedDriver's windows included), and the per-window report
// numbers, which are the only report results published as gauges.
type reportMetrics struct {
	entries  *obs.CounterVec   // report_entries_observed_total{report}
	observe  *obs.HistogramVec // report_observe_seconds{report}
	finalize *obs.HistogramVec // report_finalize_seconds{report}

	// Rolling-window evaluation (WindowedDriver). The window label is a
	// recency slot — "0" is the newest closed window, "1" the one before it,
	// bounded by WindowOptions.Keep — so label cardinality stays fixed no
	// matter how long the service runs; windowStart maps each slot back to
	// its window's start time.
	window        *obs.GaugeVec // report_window_metric{report,metric,window}
	windowStart   *obs.GaugeVec // report_window_start_seconds{window}
	windowsClosed *obs.Counter  // report_windows_closed_total
	windowLate    *obs.Counter  // report_window_late_entries_total
}

var repMetrics atomic.Pointer[reportMetrics]

// EnableMetrics registers the report metrics in r (obs.Default when nil) and
// turns instrumentation on for drivers created afterwards. When never
// called, Driver.Write pays only its write count and two nil checks on a
// pointer resolved at NewDriver.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		r = obs.Default
	}
	repMetrics.Store(&reportMetrics{
		entries: r.CounterVec("report_entries_observed_total",
			"Entries folded into each attached report.", "report"),
		observe: r.HistogramVec("report_observe_seconds",
			"Per-entry Observe latency, sampled every 1024th driver write.",
			obs.ExponentialBuckets(1e-8, 10, 7), "report"),
		finalize: r.HistogramVec("report_finalize_seconds",
			"Time each report took to finalize its result.",
			obs.ExponentialBuckets(1e-6, 10, 8), "report"),
		window: r.GaugeVec("report_window_metric",
			"Per-window report metrics from rolling-window evaluation; window is a recency slot (0 = newest closed).",
			"report", "metric", "window"),
		windowStart: r.GaugeVec("report_window_start_seconds",
			"Start of the window each recency slot currently holds, as Unix seconds of virtual time.",
			"window"),
		windowsClosed: r.Counter("report_windows_closed_total",
			"Windows finalized by rolling-window drivers."),
		windowLate: r.Counter("report_window_late_entries_total",
			"Entries that arrived after their window had already been finalized and were dropped."),
	})
}

// LiveReporter is implemented by reports able to expose headline numbers
// mid-stream, before Finalize. WindowedDriver.Snapshot reads them for every
// still-open window, so /reports shows a window's figures forming before it
// closes and reaches the report_window_metric gauges.
type LiveReporter interface {
	// LiveMetrics returns the report's current headline numbers. It is
	// called under the WindowedDriver's lock (never concurrently with
	// Observe), so implementations can read their accumulation state
	// directly.
	LiveMetrics() map[string]float64
}

// reportHandles is one report's slice of reportMetrics, resolved at add so
// the write path touches no label maps.
type reportHandles struct {
	entries  *obs.Counter
	observe  *obs.Histogram
	finalize *obs.Histogram
}

const (
	// counterFlushStride bounds the staleness of report_entries_observed:
	// the driver counts its writes in two plain integers and flushes them to
	// the atomic counters every this many driver writes (and at Finalize),
	// so the instrumented hot path stays within the <=5% overhead budget. It
	// is a multiple of observeSampleStride, so resetting the count at a
	// flush keeps the timing sample 1-in-observeSampleStride.
	counterFlushStride = 4096
	// observeSampleStride picks which writes get per-report Observe timing;
	// 1-in-1024 keeps two time.Now calls per report off the common path
	// while still populating the latency histogram quickly at realistic
	// event rates.
	observeSampleStride = 1024
)

// flushCounts adds each report's entries since the last flush to its
// counter: every entry written, less the duplicates withheld from it when
// it wants dedup.
func (d *Driver) flushCounts() {
	for i, r := range d.active {
		n := d.written
		if r.WantsDedup() {
			n -= d.dups
		}
		if n > 0 {
			d.met[i].entries.Add(n)
		}
	}
	d.written, d.dups = 0, 0
}
