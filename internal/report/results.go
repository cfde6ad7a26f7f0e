package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/popularity"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
)

// --- SummaryResult ----------------------------------------------------------

// SummaryResult is the raw unified-trace summary.
type SummaryResult struct {
	Summary trace.Summary
}

// Render prints the summary; maps are sorted so the same trace always
// renders the same bytes.
func (r *SummaryResult) Render() string {
	s := r.Summary
	var sb strings.Builder
	fmt.Fprintf(&sb, "entries: %d (requests %d), peers %d, CIDs %d\n", s.Entries, s.Requests, s.UniquePeers, s.UniqueCIDs)
	fmt.Fprintf(&sb, "rebroadcasts: %d, inter-monitor dups: %d\n", s.Rebroadcasts, s.InterMonDups)
	fmt.Fprintf(&sb, "window: %s .. %s\n", s.First.Format(time.RFC3339), s.Last.Format(time.RFC3339))
	for _, mon := range sortedKeys(s.PerMonitor) {
		fmt.Fprintf(&sb, "  monitor %s: %d entries\n", mon, s.PerMonitor[mon])
	}
	types := make([]string, 0, len(s.PerType))
	byType := make(map[string]int, len(s.PerType))
	for typ, n := range s.PerType {
		types = append(types, typ.String())
		byType[typ.String()] = n
	}
	sort.Strings(types)
	for _, typ := range types {
		fmt.Fprintf(&sb, "  %s: %d\n", typ, byType[typ])
	}
	return sb.String()
}

// Metrics exposes the summary counters.
func (r *SummaryResult) Metrics() map[string]float64 {
	s := r.Summary
	return map[string]float64{
		"entries":            float64(s.Entries),
		"requests":           float64(s.Requests),
		"unique_peers":       float64(s.UniquePeers),
		"unique_cids":        float64(s.UniqueCIDs),
		"rebroadcasts":       float64(s.Rebroadcasts),
		"inter_monitor_dups": float64(s.InterMonDups),
	}
}

// --- Traffic ----------------------------------------------------------------

// Traffic is the dedup-share and origin-share panel: both trace views in one
// pass.
type Traffic struct {
	Entries       int
	Requests      int
	DedupEntries  int
	DedupRequests int
	RebroadShare  float64
	GatewayShare  float64
	// HasGatewayIDs reports whether a gateway ID set was provided; when
	// false, GatewayShare is structurally zero and is not rendered or
	// exported as a metric (it would read as a real 0% share).
	HasGatewayIDs bool
}

// Render prints the panel.
func (t *Traffic) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "traffic: %d entries (%d requests) raw, %d (%d) after dedup\n",
		t.Entries, t.Requests, t.DedupEntries, t.DedupRequests)
	fmt.Fprintf(&sb, "duplicates/rebroadcasts: %.1f%% of raw entries\n", 100*t.RebroadShare)
	if t.HasGatewayIDs {
		fmt.Fprintf(&sb, "gateway share of deduplicated requests: %.1f%%\n", 100*t.GatewayShare)
	}
	return sb.String()
}

// Metrics exposes the dedup counters and shares.
func (t *Traffic) Metrics() map[string]float64 {
	out := map[string]float64{
		"dedup_entries":  float64(t.DedupEntries),
		"dedup_requests": float64(t.DedupRequests),
		"rebroad_share":  t.RebroadShare,
	}
	if t.HasGatewayIDs {
		out["gateway_share"] = t.GatewayShare
	}
	return out
}

// --- Online -----------------------------------------------------------------

// Online is the one-pass aggregate panel: exact totals and per-type counts,
// requests per bucket, the exact numbers of distinct peers and CIDs, and
// the exact top K CIDs by requests.
type Online struct {
	Entries       int64
	Requests      int64
	DistinctPeers int
	DistinctCIDs  int
	First         time.Time
	Last          time.Time
	PerType       map[string]int64
	BucketSize    time.Duration
	Buckets       []ingest.TypeBucket
	TopK          int
	TopCIDs       []popularity.CIDCount
}

// Render prints the panel, including the windowed request-type series and
// the top K CIDs.
func (r *Online) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "entries: %d (requests %d)\n", r.Entries, r.Requests)
	fmt.Fprintf(&sb, "distinct peers %d, distinct CIDs %d\n", r.DistinctPeers, r.DistinctCIDs)
	fmt.Fprintf(&sb, "window: %s .. %s\n", r.First.Format(time.RFC3339), r.Last.Format(time.RFC3339))
	for _, typ := range sortedKeys64(r.PerType) {
		fmt.Fprintf(&sb, "  %s: %d\n", typ, r.PerType[typ])
	}
	fmt.Fprintf(&sb, "requests per %v by entry type\n", r.BucketSize)
	fmt.Fprintf(&sb, "%-25s %12s %12s\n", "bucket", "WANT_BLOCK", "WANT_HAVE")
	for _, b := range r.Buckets {
		if b.WantBlock == 0 && b.WantHave == 0 {
			continue // CANCEL-only buckets carry no requests
		}
		fmt.Fprintf(&sb, "%-25s %12d %12d\n", b.Start.Format(time.RFC3339), b.WantBlock, b.WantHave)
	}
	fmt.Fprintf(&sb, "top %d CIDs (exact request counts):\n", r.TopK)
	for i, tc := range r.TopCIDs {
		fmt.Fprintf(&sb, "  %2d. %s  %d requests\n", i+1, tc.CID, tc.Count)
	}
	return sb.String()
}

// Metrics exposes the totals and the distinct counts.
func (r *Online) Metrics() map[string]float64 {
	return map[string]float64{
		"entries":        float64(r.Entries),
		"requests":       float64(r.Requests),
		"distinct_peers": float64(r.DistinctPeers),
		"distinct_cids":  float64(r.DistinctCIDs),
	}
}

// --- Table1 -----------------------------------------------------------------

// Table1Row is one multicodec share.
type Table1Row struct {
	Codec string
	Count int
	Share float64
}

// Table1 is the share of data requests by multicodec (paper Table I),
// computed from the raw trace (requests only, no CANCELs, duplicates
// counted).
type Table1 struct {
	Total int
	Rows  []Table1Row
}

func (t *Table1) sortRows() {
	// Count descending, name ascending on ties: rows accumulate in map
	// order, so the sort must be fully deterministic on its own.
	sort.Slice(t.Rows, func(i, j int) bool {
		if t.Rows[i].Count != t.Rows[j].Count {
			return t.Rows[i].Count > t.Rows[j].Count
		}
		return t.Rows[i].Codec < t.Rows[j].Codec
	})
}

// Render prints the table.
func (t *Table1) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table I — share of data requests by multicodec (%d requests)\n", t.Total)
	fmt.Fprintf(&sb, "%-22s %12s %9s\n", "codec", "count", "share")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-22s %12d %8.2f%%\n", r.Codec, r.Count, 100*r.Share)
	}
	return sb.String()
}

// Metrics exposes the total plus one share per codec.
func (t *Table1) Metrics() map[string]float64 {
	out := map[string]float64{"requests": float64(t.Total)}
	for _, r := range t.Rows {
		out["share:"+r.Codec] = r.Share
	}
	return out
}

// --- Table2 -----------------------------------------------------------------

// Table2Row is one country share.
type Table2Row struct {
	Country simnet.Region
	Count   int
	Share   float64
}

// Table2 is the share of data requests by origin country (paper Table II),
// computed from the deduplicated trace through the GeoIP database.
type Table2 struct {
	Total   int
	Unknown int
	Rows    []Table2Row
}

func (t *Table2) sortRows() {
	// Count descending, country ascending on ties (see Table1.sortRows).
	sort.Slice(t.Rows, func(i, j int) bool {
		if t.Rows[i].Count != t.Rows[j].Count {
			return t.Rows[i].Count > t.Rows[j].Count
		}
		return t.Rows[i].Country < t.Rows[j].Country
	})
}

// Render prints the table.
func (t *Table2) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II — share of data requests by country (%d resolved, %d unknown)\n", t.Total, t.Unknown)
	fmt.Fprintf(&sb, "%-10s %12s %9s\n", "country", "count", "share")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-10s %12d %8.2f%%\n", r.Country, r.Count, 100*r.Share)
	}
	return sb.String()
}

// Metrics exposes resolved/unknown counts plus one share per country.
func (t *Table2) Metrics() map[string]float64 {
	out := map[string]float64{
		"resolved": float64(t.Total),
		"unknown":  float64(t.Unknown),
	}
	for _, r := range t.Rows {
		out["share:"+string(r.Country)] = r.Share
	}
	return out
}

// --- Fig4 -------------------------------------------------------------------

// Fig4Bucket is one time bucket of Fig. 4.
type Fig4Bucket struct {
	Start     time.Time
	WantBlock int
	WantHave  int
}

// Fig4 is the requests-over-time-by-type series (paper Fig. 4). The
// registered fig4 report counts deduplicated requests in 1 h buckets; the
// paper's figure counts raw requests by day, which for a sweep.UpgradeSpec
// run is
//
//	bsanalyze -dedup=false -bucket 24h -report fig4 <run>/mon-us.segments
type Fig4 struct {
	BucketSize time.Duration
	Buckets    []Fig4Bucket
}

func (f *Fig4) sortBuckets() {
	sort.Slice(f.Buckets, func(i, j int) bool { return f.Buckets[i].Start.Before(f.Buckets[j].Start) })
}

// Render prints the series.
func (f *Fig4) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 4 — requests per %v by entry type\n", f.BucketSize)
	fmt.Fprintf(&sb, "%-25s %12s %12s\n", "bucket", "WANT_BLOCK", "WANT_HAVE")
	for _, b := range f.Buckets {
		fmt.Fprintf(&sb, "%-25s %12d %12d\n", b.Start.Format(time.RFC3339), b.WantBlock, b.WantHave)
	}
	return sb.String()
}

// Metrics exposes the series totals.
func (f *Fig4) Metrics() map[string]float64 {
	var wb, wh int
	for _, b := range f.Buckets {
		wb += b.WantBlock
		wh += b.WantHave
	}
	return map[string]float64{
		"buckets":    float64(len(f.Buckets)),
		"want_block": float64(wb),
		"want_have":  float64(wh),
	}
}

// --- Fig5 -------------------------------------------------------------------

// Fig5 is the popularity analysis (paper Fig. 5): ECDFs of both scores plus
// the CSN power-law hypothesis test on each. A score with too few samples to
// fit (fewer than ten distinct CIDs) has its Fitted flag false and the
// reason in its FitErr; the ECDFs and shares are valid either way.
type Fig5 struct {
	CIDs        int
	RRPECDF     []popularity.ECDFPoint
	URPECDF     []popularity.ECDFPoint
	URPShare1   float64 // share of CIDs requested by exactly one peer
	RRPFitted   bool
	URPFitted   bool
	RRPFit      popularity.PowerLawFit
	URPFit      popularity.PowerLawFit
	RRPPValue   float64
	URPPValue   float64
	RRPRejected bool
	URPRejected bool
	RRPFitErr   string
	URPFitErr   string
}

// Render prints the analysis.
func (f *Fig5) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 5 — content popularity over %d CIDs\n", f.CIDs)
	fmt.Fprintf(&sb, "URP share with exactly 1 peer: %.1f%% (paper: >80%%)\n", 100*f.URPShare1)
	renderFit := func(label string, fitted bool, fit popularity.PowerLawFit, p float64, rejected bool, fitErr string) {
		if !fitted {
			fmt.Fprintf(&sb, "%s power law: %s\n", label, fitErr)
			return
		}
		fmt.Fprintf(&sb, "%s power law: alpha=%.2f xmin=%d KS=%.4f p=%.3f rejected=%v\n",
			label, fit.Alpha, fit.Xmin, fit.KS, p, rejected)
	}
	renderFit("RRP", f.RRPFitted, f.RRPFit, f.RRPPValue, f.RRPRejected, f.RRPFitErr)
	renderFit("URP", f.URPFitted, f.URPFit, f.URPPValue, f.URPRejected, f.URPFitErr)
	fmt.Fprintf(&sb, "RRP ECDF (%d points), URP ECDF (%d points)\n", len(f.RRPECDF), len(f.URPECDF))
	return sb.String()
}

// Metrics exposes the headline popularity numbers; a score that could not
// be fitted contributes none, so a cross-run table shows a gap rather than
// a zero.
func (f *Fig5) Metrics() map[string]float64 {
	out := map[string]float64{
		"cids":       float64(f.CIDs),
		"urp_share1": f.URPShare1,
	}
	if f.RRPFitted {
		out["rrp_alpha"] = f.RRPFit.Alpha
		out["rrp_pvalue"] = f.RRPPValue
		out["rrp_rejected"] = boolMetric(f.RRPRejected)
	}
	if f.URPFitted {
		out["urp_alpha"] = f.URPFit.Alpha
		out["urp_pvalue"] = f.URPPValue
		out["urp_rejected"] = boolMetric(f.URPRejected)
	}
	return out
}

// --- Fig6 -------------------------------------------------------------------

// Fig6Slice is one time slice of Fig. 6 (rates in requests/s).
type Fig6Slice struct {
	Start      time.Time
	AllGateway float64 // requests/s from any gateway node
	Megagate   float64 // requests/s from the large operator's nodes
	NonGateway float64 // requests/s from everyone else
}

// Fig6 is the deduplicated request rate by origin group over time (paper
// Fig. 6).
type Fig6 struct {
	SliceSize time.Duration
	Slices    []Fig6Slice
}

func (f *Fig6) sortSlices() {
	sort.Slice(f.Slices, func(i, j int) bool { return f.Slices[i].Start.Before(f.Slices[j].Start) })
}

// Totals averages the rates across slices (requests/s).
func (f *Fig6) Totals() (gateway, megagate, nonGateway float64) {
	if len(f.Slices) == 0 {
		return 0, 0, 0
	}
	for _, s := range f.Slices {
		gateway += s.AllGateway
		megagate += s.Megagate
		nonGateway += s.NonGateway
	}
	n := float64(len(f.Slices))
	return gateway / n, megagate / n, nonGateway / n
}

// Render prints the series.
func (f *Fig6) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 6 — deduplicated request rate by origin group (per %v slice)\n", f.SliceSize)
	fmt.Fprintf(&sb, "%-25s %12s %12s %12s\n", "slice", "all-gateways", "megagate", "non-gateway")
	for _, s := range f.Slices {
		fmt.Fprintf(&sb, "%-25s %12.3f %12.3f %12.3f\n",
			s.Start.Format(time.RFC3339), s.AllGateway, s.Megagate, s.NonGateway)
	}
	return sb.String()
}

// Metrics exposes the slice-averaged rates.
func (f *Fig6) Metrics() map[string]float64 {
	gw, mg, ng := f.Totals()
	return map[string]float64{
		"gateway_rps":     gw,
		"megagate_rps":    mg,
		"non_gateway_rps": ng,
	}
}

// --- Popularity -------------------------------------------------------------

// Popularity is the streaming RRP/URP panel: both ECDFs plus the CSN
// power-law fit on RRP. Unlike Fig5 it tolerates traces too small to fit.
type Popularity struct {
	CIDs        int
	RRPECDF     []popularity.ECDFPoint
	URPECDF     []popularity.ECDFPoint
	URPShare1   float64
	RRPFitted   bool
	RRPFit      popularity.PowerLawFit
	RRPPValue   float64
	RRPRejected bool
	RRPFitErr   string
}

// Render prints the panel: every ECDF point for small supports, key
// quantiles otherwise.
func (p *Popularity) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "distinct CIDs: %d\n", p.CIDs)
	fmt.Fprintf(&sb, "single-requester CIDs (URP = 1): %.1f%%\n", 100*p.URPShare1)
	renderECDF(&sb, "RRP", p.RRPECDF)
	renderECDF(&sb, "URP", p.URPECDF)
	if !p.RRPFitted {
		fmt.Fprintf(&sb, "power-law fit (RRP): %s\n", p.RRPFitErr)
		return sb.String()
	}
	verdict := "not rejected"
	if p.RRPRejected {
		verdict = "REJECTED"
	}
	fmt.Fprintf(&sb, "power-law fit (RRP): alpha=%.3f xmin=%d KS=%.4f p=%.2f => %s\n",
		p.RRPFit.Alpha, p.RRPFit.Xmin, p.RRPFit.KS, p.RRPPValue, verdict)
	return sb.String()
}

// renderECDF renders an ECDF compactly: every point for small supports, the
// first point reaching each key quantile otherwise, each point once.
func renderECDF(sb *strings.Builder, label string, pts []popularity.ECDFPoint) {
	fmt.Fprintf(sb, "%s ECDF:\n", label)
	if len(pts) <= 12 {
		for _, p := range pts {
			fmt.Fprintf(sb, "  P(X <= %.0f) = %.4f\n", p.Value, p.Prob)
		}
		return
	}
	targets := []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1}
	i, printed := 0, -1
	for _, q := range targets {
		for i < len(pts)-1 && pts[i].Prob < q {
			i++
		}
		if i > printed {
			fmt.Fprintf(sb, "  P(X <= %.0f) = %.4f\n", pts[i].Value, pts[i].Prob)
			printed = i
		}
	}
}

// Metrics exposes the headline popularity numbers.
func (p *Popularity) Metrics() map[string]float64 {
	out := map[string]float64{
		"cids":       float64(p.CIDs),
		"urp_share1": p.URPShare1,
	}
	if p.RRPFitted {
		out["rrp_alpha"] = p.RRPFit.Alpha
		out["rrp_pvalue"] = p.RRPPValue
		out["rrp_rejected"] = boolMetric(p.RRPRejected)
	}
	return out
}

// --- helpers ----------------------------------------------------------------

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeys64(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
