package sweep

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file is the metrics-by-name surface of RunSummary: every number a
// run is compared by lives once, in the summary's metrics map. Canonical
// metrics (the ones every run produces) keep their historical names; extra
// reports a spec requests contribute "<report>:<metric>" entries; monitor
// coverage is addressed "coverage:<monitor>".

// canonicalMetrics lists, sorted, the metrics every run summary carries.
// A run kind with no source for one still carries it, as a structural zero
// (replay runs have no gateway fleet, synthetic runs replay no events), so
// aggregate CSV columns are identical across run kinds and schema versions.
var canonicalMetrics = []string{
	"dedup_entries",     // unified-trace entries after Sec. IV-B dedup
	"dedup_requests",    // requests (non-CANCEL entries) after dedup
	"entries",           // unified-trace entries, all monitors merged
	"fitted_alpha",      // fitted model's power-law exponent (fitted replay)
	"gateway_hit_rate",  // fleet-wide gateway HTTP cache hit ratio
	"gateway_share",     // share of deduplicated requests from gateway nodes
	"online_avg",        // mean ground-truth online population over the window
	"peer_overlap",      // |∩| / |∪| of the monitors' Bitswap-active peer sets
	"population",        // total node count, or the replay pool size
	"rebroad_share",     // share of entries flagged as duplicates
	"replay_events",     // replayed want-list events
	"replay_requesters", // distinct requesters mapped onto the replay pool
	"requests",          // requests in the unified trace
	"unique_cids",       // distinct CIDs requested
	"unique_peers",      // distinct requesting peers
}

// KnownMetrics lists the canonical metric names every run summary carries,
// sorted.
func KnownMetrics() []string { return slices.Clone(canonicalMetrics) }

// canonicalZeros returns a metrics map holding every canonical name at 0,
// the starting point a run's summary fills in.
func canonicalZeros() map[string]float64 {
	m := make(map[string]float64, len(canonicalMetrics))
	for _, name := range canonicalMetrics {
		m[name] = 0
	}
	return m
}

// Metric resolves one metric by name: the metrics map (canonical names and
// report-contributed extras), then "coverage:<monitor>" addressing.
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
	return 0, fmt.Errorf("sweep: unknown metric %q on run %s (known: %s, coverage:<monitor>%s)",
		name, r.RunID, strings.Join(canonicalMetrics, ", "), r.extraMetricHint())
}

// extraMetricHint lists report-contributed metric names present on this
// summary but outside the canonical set, to make typos diagnosable.
func (r *RunSummary) extraMetricHint() string {
	var extras []string
	for k := range r.Metrics {
		if !slices.Contains(canonicalMetrics, k) {
			extras = append(extras, k)
		}
	}
	if len(extras) == 0 {
		return ""
	}
	sort.Strings(extras)
	return "; this run also has: " + strings.Join(extras, ", ")
}

// MetricNames lists every metric name in this summary's metrics map,
// sorted. Coverage names are excluded (they are derived from
// MonitorCoverage).
func (r *RunSummary) MetricNames() []string {
	out := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		if !strings.HasPrefix(k, "coverage:") {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
