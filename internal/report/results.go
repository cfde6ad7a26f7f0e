package report

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
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

// CSV renders metric,value lines.
func (r *SummaryResult) CSV() string { return Values(r.Metrics()).CSV() }

// JSON marshals the summary.
func (r *SummaryResult) JSON() ([]byte, error) { return marshalJSON(r.Summary) }

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
	Entries       int     `json:"entries"`
	Requests      int     `json:"requests"`
	DedupEntries  int     `json:"dedup_entries"`
	DedupRequests int     `json:"dedup_requests"`
	RebroadShare  float64 `json:"rebroad_share"`
	GatewayShare  float64 `json:"gateway_share"`
	// HasGatewayIDs reports whether a gateway ID set was provided; when
	// false, GatewayShare is structurally zero and is not rendered or
	// exported as a metric (it would read as a real 0% share).
	HasGatewayIDs bool `json:"has_gateway_ids"`
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

// CSV renders metric,value lines.
func (t *Traffic) CSV() string { return Values(t.Metrics()).CSV() }

// JSON marshals the panel.
func (t *Traffic) JSON() ([]byte, error) { return marshalJSON(t) }

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

// Online is the sketched one-pass aggregate panel: what a long-running
// collector can afford to keep per entry.
type Online struct {
	Entries        int64               `json:"entries"`
	Requests       int64               `json:"requests"`
	DistinctPeers  float64             `json:"distinct_peers_est"`
	DistinctCIDs   float64             `json:"distinct_cids_est"`
	First          time.Time           `json:"first"`
	Last           time.Time           `json:"last"`
	PerType        map[string]int64    `json:"per_type"`
	BucketSize     time.Duration       `json:"bucket_size"`
	Buckets        []ingest.TypeBucket `json:"buckets"`
	EvictedBuckets int                 `json:"evicted_buckets"`
	TopK           int                 `json:"top_k"`
	TopCIDs        []ingest.CIDCount   `json:"top_cids"`
}

// Render prints the panel, including the windowed request-type series and
// the space-saving top-K estimates.
func (r *Online) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "entries: %d (requests %d)\n", r.Entries, r.Requests)
	fmt.Fprintf(&sb, "distinct peers ~%.0f, distinct CIDs ~%.0f\n", r.DistinctPeers, r.DistinctCIDs)
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
	fmt.Fprintf(&sb, "top %d CIDs (space-saving estimates):\n", r.TopK)
	for i, tc := range r.TopCIDs {
		fmt.Fprintf(&sb, "  %2d. %s  ~%d requests (overcount <= %d)\n", i+1, tc.CID, tc.Count, tc.ErrBound)
	}
	return sb.String()
}

// CSV renders the windowed series.
func (r *Online) CSV() string {
	var sb strings.Builder
	sb.WriteString("bucket,want_block,want_have,cancel\n")
	for _, b := range r.Buckets {
		fmt.Fprintf(&sb, "%s,%d,%d,%d\n", b.Start.Format(time.RFC3339), b.WantBlock, b.WantHave, b.Cancel)
	}
	return sb.String()
}

// JSON marshals the panel.
func (r *Online) JSON() ([]byte, error) { return marshalJSON(r) }

// Metrics exposes the sketched estimates.
func (r *Online) Metrics() map[string]float64 {
	return map[string]float64{
		"entries":            float64(r.Entries),
		"requests":           float64(r.Requests),
		"distinct_peers_est": r.DistinctPeers,
		"distinct_cids_est":  r.DistinctCIDs,
	}
}

// --- Table1 -----------------------------------------------------------------

// Table1Row is one multicodec share.
type Table1Row struct {
	Codec string  `json:"codec"`
	Count int     `json:"count"`
	Share float64 `json:"share"`
}

// Table1 is the share of data requests by multicodec (paper Table I),
// computed from the raw trace (requests only, no CANCELs, duplicates
// counted).
type Table1 struct {
	Total int         `json:"total"`
	Rows  []Table1Row `json:"rows"`
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

// CSV renders codec,count,share lines.
func (t *Table1) CSV() string {
	var sb strings.Builder
	sb.WriteString("codec,count,share\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%s,%d,%s\n", csvEscape(r.Codec), r.Count, formatFloat(r.Share))
	}
	return sb.String()
}

// JSON marshals the table.
func (t *Table1) JSON() ([]byte, error) { return marshalJSON(t) }

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
	Country simnet.Region `json:"country"`
	Count   int           `json:"count"`
	Share   float64       `json:"share"`
}

// Table2 is the share of data requests by origin country (paper Table II),
// computed from the deduplicated trace through the GeoIP database.
type Table2 struct {
	Total   int         `json:"total"`
	Unknown int         `json:"unknown"`
	Rows    []Table2Row `json:"rows"`
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

// CSV renders country,count,share lines.
func (t *Table2) CSV() string {
	var sb strings.Builder
	sb.WriteString("country,count,share\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%s,%d,%s\n", csvEscape(string(r.Country)), r.Count, formatFloat(r.Share))
	}
	return sb.String()
}

// JSON marshals the table.
func (t *Table2) JSON() ([]byte, error) { return marshalJSON(t) }

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
	Start     time.Time `json:"start"`
	WantBlock int       `json:"want_block"`
	WantHave  int       `json:"want_have"`
}

// Fig4 is the requests-over-time-by-type series (paper Fig. 4). The
// registered fig4 report counts deduplicated requests in 1 h buckets; the
// paper's figure counts raw requests by day, which for a sweep.UpgradeSpec
// run is
//
//	bsanalyze -dedup=false -bucket 24h -report fig4 <run>/mon-us.segments
type Fig4 struct {
	BucketSize time.Duration `json:"bucket_size"`
	Buckets    []Fig4Bucket  `json:"buckets"`
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

// CSV renders bucket,want_block,want_have lines.
func (f *Fig4) CSV() string {
	var sb strings.Builder
	sb.WriteString("bucket,want_block,want_have\n")
	for _, b := range f.Buckets {
		fmt.Fprintf(&sb, "%s,%d,%d\n", b.Start.Format(time.RFC3339), b.WantBlock, b.WantHave)
	}
	return sb.String()
}

// JSON marshals the series.
func (f *Fig4) JSON() ([]byte, error) { return marshalJSON(f) }

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
	CIDs        int                    `json:"cids"`
	RRPECDF     []popularity.ECDFPoint `json:"rrp_ecdf"`
	URPECDF     []popularity.ECDFPoint `json:"urp_ecdf"`
	URPShare1   float64                `json:"urp_share1"` // share of CIDs requested by exactly one peer
	RRPFitted   bool                   `json:"rrp_fitted"`
	URPFitted   bool                   `json:"urp_fitted"`
	RRPFit      popularity.PowerLawFit `json:"rrp_fit"`
	URPFit      popularity.PowerLawFit `json:"urp_fit"`
	RRPPValue   float64                `json:"rrp_pvalue"`
	URPPValue   float64                `json:"urp_pvalue"`
	RRPRejected bool                   `json:"rrp_rejected"`
	URPRejected bool                   `json:"urp_rejected"`
	RRPFitErr   string                 `json:"rrp_fit_err,omitempty"`
	URPFitErr   string                 `json:"urp_fit_err,omitempty"`
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

// CSV renders both ECDFs long-form (series,value,prob).
func (f *Fig5) CSV() string {
	var sb strings.Builder
	sb.WriteString("series,value,prob\n")
	for _, p := range f.RRPECDF {
		fmt.Fprintf(&sb, "rrp,%s,%s\n", formatFloat(p.Value), formatFloat(p.Prob))
	}
	for _, p := range f.URPECDF {
		fmt.Fprintf(&sb, "urp,%s,%s\n", formatFloat(p.Value), formatFloat(p.Prob))
	}
	return sb.String()
}

// JSON marshals the analysis.
func (f *Fig5) JSON() ([]byte, error) { return marshalJSON(f) }

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
	Start      time.Time `json:"start"`
	AllGateway float64   `json:"all_gateway"` // requests/s from any gateway node
	Megagate   float64   `json:"megagate"`    // requests/s from the large operator's nodes
	NonGateway float64   `json:"non_gateway"` // requests/s from everyone else
}

// Fig6 is the deduplicated request rate by origin group over time (paper
// Fig. 6).
type Fig6 struct {
	SliceSize time.Duration `json:"slice_size"`
	Slices    []Fig6Slice   `json:"slices"`
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

// CSV renders slice,all_gateway,megagate,non_gateway lines.
func (f *Fig6) CSV() string {
	var sb strings.Builder
	sb.WriteString("slice,all_gateway,megagate,non_gateway\n")
	for _, s := range f.Slices {
		fmt.Fprintf(&sb, "%s,%s,%s,%s\n", s.Start.Format(time.RFC3339),
			formatFloat(s.AllGateway), formatFloat(s.Megagate), formatFloat(s.NonGateway))
	}
	return sb.String()
}

// JSON marshals the series.
func (f *Fig6) JSON() ([]byte, error) { return marshalJSON(f) }

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
	CIDs        int                    `json:"cids"`
	RRPECDF     []popularity.ECDFPoint `json:"rrp_ecdf"`
	URPECDF     []popularity.ECDFPoint `json:"urp_ecdf"`
	URPShare1   float64                `json:"urp_share1"`
	RRPFitted   bool                   `json:"rrp_fitted"`
	RRPFit      popularity.PowerLawFit `json:"rrp_fit"`
	RRPPValue   float64                `json:"rrp_pvalue"`
	RRPRejected bool                   `json:"rrp_rejected"`
	RRPFitErr   string                 `json:"rrp_fit_err,omitempty"`
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

// renderECDF renders an ECDF compactly: every point for small supports, key
// quantiles otherwise.
func renderECDF(sb *strings.Builder, label string, pts []popularity.ECDFPoint) {
	fmt.Fprintf(sb, "%s ECDF:\n", label)
	if len(pts) <= 12 {
		for _, p := range pts {
			fmt.Fprintf(sb, "  P(X <= %.0f) = %.4f\n", p.Value, p.Prob)
		}
		return
	}
	targets := []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1}
	i := 0
	for _, q := range targets {
		for i < len(pts)-1 && pts[i].Prob < q {
			i++
		}
		fmt.Fprintf(sb, "  P(X <= %.0f) = %.4f\n", pts[i].Value, pts[i].Prob)
	}
}

// CSV renders both ECDFs long-form (series,value,prob).
func (p *Popularity) CSV() string {
	var sb strings.Builder
	sb.WriteString("series,value,prob\n")
	for _, pt := range p.RRPECDF {
		fmt.Fprintf(&sb, "rrp,%s,%s\n", formatFloat(pt.Value), formatFloat(pt.Prob))
	}
	for _, pt := range p.URPECDF {
		fmt.Fprintf(&sb, "urp,%s,%s\n", formatFloat(pt.Value), formatFloat(pt.Prob))
	}
	return sb.String()
}

// JSON marshals the panel.
func (p *Popularity) JSON() ([]byte, error) { return marshalJSON(p) }

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

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}

func marshalJSON(v any) ([]byte, error) {
	out, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("report: marshal: %w", err)
	}
	return out, nil
}
