package sweep

import (
	"fmt"
	"sort"
	"strings"

	"bitswapmon/internal/dht"
	"bitswapmon/internal/estimate"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/simnet"
)

// The two panels of a crawled run that are not counts over the trace
// stream: Fig. 3 (peer-ID uniformity, a snapshot of one monitor's peers)
// and the Sec. V-C coverage and network-size panel (sampler snapshots
// against a DHT crawl and the simulation's ground truth). Both describe the
// window: ExecuteRun takes the Fig. 3 snapshot and the monitors' peer sets
// at the window's end, and only the crawl runs after it.

// SecVC aggregates the Sec. V-C measurements: monitoring coverage and
// network-size estimates from monitor peer sets, compared against a DHT
// crawl and the simulation's ground truth.
type SecVC struct {
	// Monitors names the monitors in the order of AvgConns and
	// CoveragePerMonitor.
	Monitors []string

	// Window totals.
	UniquePeers      map[string]int // per monitor, over the whole window
	UnionUniquePeers int
	ActivePeers      map[string]int // BitSwap-active per monitor
	UnionActivePeers int

	// Instantaneous averages (from the sampler).
	AvgConns        []float64
	AvgUnion        float64
	AvgIntersection float64

	// Size estimates: mean and std over per-sample estimates.
	Eq1Mean, Eq1Std float64
	Eq3Mean, Eq3Std float64

	// Crawl comparison.
	CrawlSeen      int
	CrawlResponded int

	// Ground truth (simulation only; the paper cannot know this).
	TrueOnlineAvg  float64
	TruePopulation int

	// Coverage relative to the crawl-seen estimate, as in the paper.
	CoveragePerMonitor []float64
	CoverageUnion      float64
}

// ComputeSecVC assembles the Sec. V-C panel. peers are the monitors' peer
// sets and samples come from a monitor.Sampler, both over the window; crawl
// from dht.Crawl; trueOnlineAvg and truePopulation from the workload's
// ground truth.
func ComputeSecVC(peers []monitor.PeerSets, samples []monitor.Sample,
	crawl dht.CrawlResult, trueOnlineAvg float64, truePopulation int) SecVC {

	out := SecVC{
		UniquePeers:    make(map[string]int, len(peers)),
		ActivePeers:    make(map[string]int, len(peers)),
		TrueOnlineAvg:  trueOnlineAvg,
		TruePopulation: truePopulation,
	}

	// Window totals.
	unionPeers := make(map[simnet.NodeID]bool)
	unionActive := make(map[simnet.NodeID]bool)
	for _, p := range peers {
		out.Monitors = append(out.Monitors, p.Monitor)
		out.UniquePeers[p.Monitor] = len(p.Seen)
		for id := range p.Seen {
			unionPeers[id] = true
		}
		out.ActivePeers[p.Monitor] = len(p.Active)
		for id := range p.Active {
			unionActive[id] = true
		}
	}
	out.UnionUniquePeers = len(unionPeers)
	out.UnionActivePeers = len(unionActive)

	// Sampler averages and per-sample estimates.
	var eq1s, eq3s []float64
	out.AvgConns = make([]float64, len(peers))
	for _, s := range samples {
		for i, c := range s.PerMonitor {
			out.AvgConns[i] += float64(c)
		}
		out.AvgUnion += float64(s.Union)
		out.AvgIntersection += float64(s.Intersection)
		// Eq. 1 needs the pairwise intersection, which the sampler records
		// for two monitors only; Eq. 3 takes any r >= 2 monitors as r draws
		// of their mean connection count.
		if len(s.PerMonitor) == 2 && s.Intersection > 0 {
			if e, err := estimate.Pairwise(float64(s.PerMonitor[0]), float64(s.PerMonitor[1]), float64(s.Intersection)); err == nil {
				eq1s = append(eq1s, e)
			}
		}
		if r := len(s.PerMonitor); r >= 2 {
			var w float64
			for _, c := range s.PerMonitor {
				w += float64(c)
			}
			if e, err := estimate.CommitteeOccupancy(float64(s.Union), r, w/float64(r)); err == nil {
				eq3s = append(eq3s, e)
			}
		}
	}
	if n := float64(len(samples)); n > 0 {
		for i := range out.AvgConns {
			out.AvgConns[i] /= n
		}
		out.AvgUnion /= n
		out.AvgIntersection /= n
	}
	out.Eq1Mean, out.Eq1Std = estimate.MeanStd(eq1s)
	out.Eq3Mean, out.Eq3Std = estimate.MeanStd(eq3s)

	// Crawl.
	out.CrawlSeen = len(crawl.Seen)
	out.CrawlResponded = len(crawl.Responded)

	// Coverage vs the crawl-seen count (the paper uses the larger,
	// crawl-based estimate to avoid overstating coverage).
	ref := float64(out.CrawlSeen)
	if ref > 0 {
		for i := range peers {
			out.CoveragePerMonitor = append(out.CoveragePerMonitor, out.AvgConns[i]/ref)
		}
		out.CoverageUnion = out.AvgUnion / ref
	}
	return out
}

// Render prints the panel.
func (s SecVC) Render() string {
	var sb strings.Builder
	sb.WriteString("Sec. V-C — monitoring coverage and network size\n")
	// Map iteration order would shuffle the panel between runs; monitors
	// render in sorted-name order.
	names := make([]string, 0, len(s.UniquePeers))
	for name := range s.UniquePeers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "unique peers (%s): %d (bitswap-active: %d)\n", name, s.UniquePeers[name], s.ActivePeers[name])
	}
	fmt.Fprintf(&sb, "union unique peers: %d (active: %d)\n", s.UnionUniquePeers, s.UnionActivePeers)
	fmt.Fprintf(&sb, "avg connections: %v, avg union: %.1f, avg intersection: %.1f\n",
		s.AvgConns, s.AvgUnion, s.AvgIntersection)
	fmt.Fprintf(&sb, "Eq.(1) estimate: %.0f (std %.0f)\n", s.Eq1Mean, s.Eq1Std)
	fmt.Fprintf(&sb, "Eq.(3) estimate: %.0f (std %.0f)\n", s.Eq3Mean, s.Eq3Std)
	fmt.Fprintf(&sb, "DHT crawl: %d seen, %d responded\n", s.CrawlSeen, s.CrawlResponded)
	fmt.Fprintf(&sb, "ground truth: avg online %.0f of %d total\n", s.TrueOnlineAvg, s.TruePopulation)
	for i, c := range s.CoveragePerMonitor {
		fmt.Fprintf(&sb, "coverage monitor %d: %.0f%%\n", i, 100*c)
	}
	fmt.Fprintf(&sb, "coverage union: %.0f%%\n", 100*s.CoverageUnion)
	return sb.String()
}

// Metrics returns every scalar Render prints, by name; per-monitor values
// are "<name>:<monitor>".
func (s SecVC) Metrics() map[string]float64 {
	out := map[string]float64{
		"union_unique_peers": float64(s.UnionUniquePeers),
		"union_active_peers": float64(s.UnionActivePeers),
		"avg_union":          s.AvgUnion,
		"avg_intersection":   s.AvgIntersection,
		"eq1_mean":           s.Eq1Mean,
		"eq1_std":            s.Eq1Std,
		"eq3_mean":           s.Eq3Mean,
		"eq3_std":            s.Eq3Std,
		"crawl_seen":         float64(s.CrawlSeen),
		"crawl_responded":    float64(s.CrawlResponded),
		"true_online_avg":    s.TrueOnlineAvg,
		"true_population":    float64(s.TruePopulation),
		"coverage_union":     s.CoverageUnion,
	}
	for name, n := range s.UniquePeers {
		out["unique_peers:"+name] = float64(n)
	}
	for name, n := range s.ActivePeers {
		out["active_peers:"+name] = float64(n)
	}
	for i, name := range s.Monitors {
		out["avg_conns:"+name] = s.AvgConns[i]
		if i < len(s.CoveragePerMonitor) {
			out["coverage:"+name] = s.CoveragePerMonitor[i]
		}
	}
	return out
}

// --- Fig. 3: peer-ID uniformity -------------------------------------------

// Fig3 is the QQ diagnostic of monitor peer IDs against uniformity.
type Fig3 struct {
	Monitor string
	Peers   int
	Points  []estimate.QQPoint
	KS      float64
}

// ComputeFig3 snapshots a monitor's current peers.
func ComputeFig3(m *monitor.Monitor, points int) Fig3 {
	samples := m.PeerIDUniform01()
	return Fig3{
		Monitor: m.Name,
		Peers:   len(samples),
		Points:  estimate.QQUniform(samples, points),
		KS:      estimate.KSUniform(samples),
	}
}

// Render prints the QQ plot as text.
func (f Fig3) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 3 — QQ plot of peer IDs vs uniform (monitor %s, %d peers, KS=%.4f)\n",
		f.Monitor, f.Peers, f.KS)
	fmt.Fprintf(&sb, "%12s %12s\n", "theoretical", "sample")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "%12.3f %12.3f\n", p.Theoretical, p.Sample)
	}
	return sb.String()
}

// Metrics returns the plot's scalars: the peer count and the KS distance.
func (f Fig3) Metrics() map[string]float64 {
	return map[string]float64{"peers": float64(f.Peers), "ks": f.KS}
}
