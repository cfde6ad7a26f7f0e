package sweep

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the metrics-by-name surface of RunSummary: the extensible
// map that replaced the hard-coded field switch. Canonical metrics (the
// ones every run produces) keep their historical names; extra reports a
// spec requests contribute "<report>:<metric>" entries; monitor coverage is
// addressed "coverage:<monitor>". Version-1 summaries (no metrics map) are
// normalized on read, so old sweep roots keep aggregating.

// legacyMetrics maps each canonical metric name to its typed RunSummary
// field — the read-side back-compat for version-1 summaries and for
// hand-built summaries in tests.
var legacyMetrics = map[string]func(*RunSummary) float64{
	"entries":           func(r *RunSummary) float64 { return float64(r.Entries) },
	"dedup_entries":     func(r *RunSummary) float64 { return float64(r.DedupEntries) },
	"requests":          func(r *RunSummary) float64 { return float64(r.Requests) },
	"dedup_requests":    func(r *RunSummary) float64 { return float64(r.DedupRequests) },
	"rebroad_share":     func(r *RunSummary) float64 { return r.RebroadShare },
	"unique_peers":      func(r *RunSummary) float64 { return float64(r.UniquePeers) },
	"unique_cids":       func(r *RunSummary) float64 { return float64(r.UniqueCIDs) },
	"peer_overlap":      func(r *RunSummary) float64 { return r.PeerOverlap },
	"gateway_share":     func(r *RunSummary) float64 { return r.GatewayShare },
	"gateway_hit_rate":  func(r *RunSummary) float64 { return r.GatewayHitRate },
	"online_avg":        func(r *RunSummary) float64 { return r.OnlineAvg },
	"population":        func(r *RunSummary) float64 { return float64(r.Population) },
	"replay_events":     func(r *RunSummary) float64 { return float64(r.ReplayEvents) },
	"replay_requesters": func(r *RunSummary) float64 { return float64(r.ReplayRequesters) },
	"fitted_alpha":      func(r *RunSummary) float64 { return r.FittedAlpha },
}

// KnownMetrics lists the canonical metric names every run summary carries,
// sorted.
func KnownMetrics() []string {
	out := make([]string, 0, len(legacyMetrics))
	for k := range legacyMetrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Metric resolves one metric by name: the extensible metrics map first
// (which also holds report-contributed extras), then "coverage:<monitor>"
// addressing, then the legacy typed fields.
func (r *RunSummary) Metric(name string) (float64, error) {
	if v, ok := r.Metrics[name]; ok {
		return v, nil
	}
	if mon, ok := strings.CutPrefix(name, "coverage:"); ok {
		v, ok := r.MonitorCoverage[mon]
		if !ok {
			return 0, fmt.Errorf("sweep: run %s has no monitor %q", r.RunID, mon)
		}
		return v, nil
	}
	if fn, ok := legacyMetrics[name]; ok {
		return fn(r), nil
	}
	return 0, fmt.Errorf("sweep: unknown metric %q on run %s (known: %s, coverage:<monitor>%s)",
		name, r.RunID, strings.Join(KnownMetrics(), ", "), r.extraMetricHint())
}

// extraMetricHint lists report-contributed metric names present on this
// summary but outside the canonical set, to make typos diagnosable.
func (r *RunSummary) extraMetricHint() string {
	var extras []string
	for k := range r.Metrics {
		if _, canonical := legacyMetrics[k]; !canonical {
			extras = append(extras, k)
		}
	}
	if len(extras) == 0 {
		return ""
	}
	sort.Strings(extras)
	return "; this run also has: " + strings.Join(extras, ", ")
}

// MetricNames lists every metric name resolvable on this summary: the
// canonical set plus any extras in the metrics map, sorted. Coverage names
// are excluded (they are derived from MonitorCoverage).
func (r *RunSummary) MetricNames() []string {
	seen := make(map[string]bool, len(legacyMetrics)+len(r.Metrics))
	for k := range legacyMetrics {
		seen[k] = true
	}
	for k := range r.Metrics {
		if !strings.HasPrefix(k, "coverage:") {
			seen[k] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// normalize fills the metrics map with every canonical metric not already
// present, derived from the legacy typed fields. It runs on every read and
// write path, so a version-1 summary.json loads through the same
// metrics-by-name lookups as a fresh one. Canonical metrics are always
// present even when a run has no source for them — e.g. replay runs carry
// gateway_share and gateway_hit_rate as structural zeros, exactly as
// version-1 summaries did — keeping aggregate CSV columns identical across
// run kinds and schema versions.
func (r *RunSummary) normalize() {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64, len(legacyMetrics))
	}
	for name, fn := range legacyMetrics {
		if _, ok := r.Metrics[name]; !ok {
			r.Metrics[name] = fn(r)
		}
	}
}
