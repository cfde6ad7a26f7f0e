package ingest

import (
	"sync/atomic"

	"bitswapmon/internal/obs"
)

// ingestMetrics is the ingest pipeline's telemetry surface: the write path
// into segment storage (entries, sealed segments, bytes, flush latency) and
// the Sec. IV-B dedup windows (hits per flag, evictions), enough to watch a
// live monitor deployment's storage churn and duplicate rates.
type ingestMetrics struct {
	entries      *obs.Counter   // ingest_entries_total
	sealed       *obs.Counter   // ingest_segments_sealed_total
	bytes        *obs.Counter   // ingest_segment_bytes_total
	flushLatency *obs.Histogram // ingest_segment_flush_seconds
	rebroadcast  *obs.Counter   // ingest_dedup_rebroadcast_hits_total
	interMonitor *obs.Counter   // ingest_dedup_inter_monitor_hits_total
	evictions    *obs.Counter   // ingest_dedup_window_evictions_total
	compactions  *obs.Counter   // ingest_compactions_total
	compacted    *obs.Counter   // ingest_compacted_segments_total
	expired      *obs.Counter   // ingest_retention_expired_segments_total
}

var ingMetrics atomic.Pointer[ingestMetrics]

// EnableMetrics registers the ingest metrics in r (obs.Default when nil) and
// turns instrumentation on for stores and unifiers created afterwards. When
// never called, hot paths pay only a nil check on a pointer resolved at
// construction.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		r = obs.Default
	}
	ingMetrics.Store(&ingestMetrics{
		entries: r.Counter("ingest_entries_total",
			"Trace entries written into segment storage."),
		sealed: r.Counter("ingest_segments_sealed_total",
			"Segments sealed (footer written and indexed)."),
		bytes: r.Counter("ingest_segment_bytes_total",
			"Bytes flushed to disk in sealed segment files."),
		flushLatency: r.Histogram("ingest_segment_flush_seconds",
			"Time to seal one segment: close the compressed stream, append the footer, sync the file.",
			obs.ExponentialBuckets(1e-4, 10, 6)),
		rebroadcast: r.Counter("ingest_dedup_rebroadcast_hits_total",
			"Entries flagged as same-monitor rebroadcasts within the rebroadcast window."),
		interMonitor: r.Counter("ingest_dedup_inter_monitor_hits_total",
			"Entries flagged as duplicates seen at another monitor within the inter-monitor window."),
		evictions: r.Counter("ingest_dedup_window_evictions_total",
			"Requests (peer, type, CID) dropped from the dedup window state once their newest observation fell out of the rebroadcast window."),
		compactions: r.Counter("ingest_compactions_total",
			"Generation-2 segments produced by merging runs of small sealed segments."),
		compacted: r.Counter("ingest_compacted_segments_total",
			"Input segments absorbed into generation-2 segments."),
		expired: r.Counter("ingest_retention_expired_segments_total",
			"Sealed segments deleted because their whole time range aged past the retention horizon."),
	})
}
