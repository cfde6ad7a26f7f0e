package sweep

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/wire"
)

// TestRunWeekSmall is the end-to-end integration test: every table and
// figure must be computable from one run of the small week preset, and the
// headline shapes of the paper must hold.
func TestRunWeekSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	spec := DefaultSpec()
	dir := t.TempDir()
	sum, err := ExecuteRun(dir, Run{ID: "week-small", Seed: spec.Seed, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	m := sum.Metrics

	// Trace volume sanity.
	if m["entries"] < 500 {
		t.Errorf("raw entries = %v, want a substantial trace", m["entries"])
	}
	if m["dedup_entries"] >= m["entries"] {
		t.Error("dedup did not remove anything")
	}
	// The paper: repeated broadcasts make up >50% of all requests. Shape:
	// a large share of the raw trace is duplicates.
	if m["rebroad_share"] < 0.2 {
		t.Errorf("rebroadcast/dup share = %.2f, want substantial", m["rebroad_share"])
	}

	// Fig. 3: peer IDs close to uniform.
	if m["fig3:peers"] < 20 {
		t.Errorf("fig3 peers = %v", m["fig3:peers"])
	}
	if m["fig3:ks"] > 0.15 {
		t.Errorf("fig3 KS = %.3f, want near-uniform", m["fig3:ks"])
	}

	// Sec. V-C: estimates within a factor ~2 of ground truth, and the
	// positively correlated monitor connectivity makes them underestimate.
	eq1, eq3 := m["secvc:eq1_mean"], m["secvc:eq3_mean"]
	if eq1 <= 0 || eq3 <= 0 {
		t.Fatalf("estimates missing: eq1 %v, eq3 %v", eq1, eq3)
	}
	truth := m["secvc:true_online_avg"]
	for name, est := range map[string]float64{"eq1": eq1, "eq3": eq3} {
		if est < truth*0.3 || est > truth*2.0 {
			t.Errorf("%s estimate %.0f too far from truth %.0f", name, est, truth)
		}
	}
	// Paper shape: crawl (over a window) sees more than the estimators say.
	if m["secvc:crawl_seen"] == 0 {
		t.Error("crawl saw nothing")
	}
	// Coverage: both monitors near 50%, union above each.
	for _, mon := range spec.Monitors {
		if cov := m["secvc:coverage:"+mon.Name]; cov < 0.2 || cov > 1.0 {
			t.Errorf("coverage %s = %.2f", mon.Name, cov)
		}
	}
	if m["secvc:coverage_union"] <= m["secvc:coverage:"+spec.Monitors[0].Name] {
		t.Error("union coverage not above single-monitor coverage")
	}

	// Table I: DagProtobuf dominates.
	if top := topShare(m, "table1:share:"); top != "DagProtobuf" {
		t.Errorf("top codec = %s, want DagProtobuf", top)
	}
	if share := m["table1:share:DagProtobuf"]; share < 0.6 {
		t.Errorf("DagProtobuf share = %.2f, want dominant", share)
	}

	// Table II: US leads with roughly the Table II share.
	if top := topShare(m, "table2:share:"); top != "US" {
		t.Errorf("top country = %s, want US", top)
	}
	if share := m["table2:share:US"]; share < 0.30 || share > 0.60 {
		t.Errorf("US share = %.2f, want ≈ 0.46", share)
	}

	// Fig. 5: most CIDs requested by one peer.
	if m["fig5:urp_share1"] < 0.5 {
		t.Errorf("URP share-1 = %.2f, want high (paper >0.8)", m["fig5:urp_share1"])
	}

	// Fig. 6: gateway traffic visible and megagate dominates gateway share.
	gw, mg, ng := m["fig6:gateway_rps"], m["fig6:megagate_rps"], m["fig6:non_gateway_rps"]
	if gw <= 0 || ng <= 0 {
		t.Errorf("fig6 rates: gw=%.3f ng=%.3f", gw, ng)
	}
	if mg <= 0 || mg > gw {
		t.Errorf("megagate rate %.3f vs all gateways %.3f", mg, gw)
	}

	// Sec. VI-B: all functional gateways identified; all discovered IDs
	// correct.
	if sum.GatewaysProbed == 0 || sum.GatewaysIdentified < sum.GatewaysProbed*3/4 {
		t.Errorf("gateways identified %d of %d", sum.GatewaysIdentified, sum.GatewaysProbed)
	}
	sections := reportSections(t, dir)
	var probed, identified, found, correct int
	if _, err := fmt.Sscanf(sections["probes"], "Sec. VI-B: probed %d gateways, identified %d; discovered %d node IDs (%d correct)",
		&probed, &identified, &found, &correct); err != nil {
		t.Fatalf("probes section %q: %v", sections["probes"], err)
	}
	if found == 0 || correct != found {
		t.Errorf("gateway IDs: %d found, %d correct", found, correct)
	}

	// report.txt holds every table and figure.
	for name, want := range map[string]string{
		"table1": "Table I", "table2": "Table II", "fig5": "Fig. 5", "fig6": "Fig. 6",
		"secvc": "Sec. V-C", "fig3": "Fig. 3",
	} {
		if !strings.Contains(sections[name], want) {
			t.Errorf("report.txt section %s missing %q", name, want)
		}
	}
}

// topShare returns the row of the largest "<prefix><row>" metric.
func topShare(m map[string]float64, prefix string) string {
	top, best := "", -1.0
	for k, v := range m {
		if row, ok := strings.CutPrefix(k, prefix); ok && v > best {
			top, best = row, v
		}
	}
	return top
}

// TestRunUpgrade verifies the Fig. 4 transition: WANT_BLOCK dominates early
// buckets, WANT_HAVE dominates late buckets.
func TestRunUpgrade(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	spec := UpgradeSpec(120, 3)
	spec.Seed = 7
	fig := upgradeFig4(t, t.TempDir(), spec)
	buckets := fig.Buckets
	if len(buckets) < 10 {
		t.Fatalf("fig4 buckets = %d", len(buckets))
	}
	early := buckets[1] // skip partial first bucket
	late := buckets[len(buckets)-2]
	if early.WantBlock <= early.WantHave {
		t.Errorf("early bucket should be WANT_BLOCK-dominated: %+v", early)
	}
	if late.WantHave <= late.WantBlock {
		t.Errorf("late bucket should be WANT_HAVE-dominated: %+v", late)
	}
	if fig.BucketSize != 24*time.Hour {
		t.Errorf("bucket size = %v", fig.BucketSize)
	}
	if !strings.Contains(fig.Render(), wire.WantHave.String()) {
		t.Error("render missing WANT_HAVE column")
	}
}
