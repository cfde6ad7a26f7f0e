package experiments

import (
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/sweep"
	"bitswapmon/internal/wire"
)

// TestRunWeekSmall is the end-to-end integration test: every table and
// figure must be computable from one small scenario, and the headline shapes
// of the paper must hold.
func TestRunWeekSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rep, err := RunWeekSpec(sweep.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}

	// Trace volume sanity.
	if rep.RawEntries < 500 {
		t.Errorf("raw entries = %d, want a substantial trace", rep.RawEntries)
	}
	if rep.DedupEntries >= rep.RawEntries {
		t.Error("dedup did not remove anything")
	}
	// The paper: repeated broadcasts make up >50% of all requests. Shape:
	// a large share of the raw trace is duplicates.
	if rep.RebroadShare < 0.2 {
		t.Errorf("rebroadcast/dup share = %.2f, want substantial", rep.RebroadShare)
	}

	// Fig. 3: peer IDs close to uniform.
	if rep.Fig3us.Peers < 20 {
		t.Errorf("fig3 peers = %d", rep.Fig3us.Peers)
	}
	if rep.Fig3us.KS > 0.15 {
		t.Errorf("fig3 KS = %.3f, want near-uniform", rep.Fig3us.KS)
	}

	// Sec. V-C: estimates within a factor ~2 of ground truth, and the
	// positively correlated monitor connectivity makes them underestimate.
	if rep.SecVC.Eq1Mean <= 0 || rep.SecVC.Eq3Mean <= 0 {
		t.Fatalf("estimates missing: %+v", rep.SecVC)
	}
	truth := rep.SecVC.TrueOnlineAvg
	for name, est := range map[string]float64{"eq1": rep.SecVC.Eq1Mean, "eq3": rep.SecVC.Eq3Mean} {
		if est < truth*0.3 || est > truth*2.0 {
			t.Errorf("%s estimate %.0f too far from truth %.0f", name, est, truth)
		}
	}
	// Paper shape: crawl (over a window) sees more than the estimators say.
	if rep.SecVC.CrawlSeen == 0 {
		t.Error("crawl saw nothing")
	}
	// Coverage: both monitors near 50%, union above each.
	for i, cov := range rep.SecVC.CoveragePerMonitor {
		if cov < 0.2 || cov > 1.0 {
			t.Errorf("coverage[%d] = %.2f", i, cov)
		}
	}
	if rep.SecVC.CoverageUnion <= rep.SecVC.CoveragePerMonitor[0] {
		t.Error("union coverage not above single-monitor coverage")
	}

	// Table I: DagProtobuf dominates, Raw second.
	if len(rep.Tab1.Rows) < 2 {
		t.Fatalf("table1 rows = %d", len(rep.Tab1.Rows))
	}
	if rep.Tab1.Rows[0].Codec != "DagProtobuf" {
		t.Errorf("top codec = %s, want DagProtobuf", rep.Tab1.Rows[0].Codec)
	}
	if rep.Tab1.Rows[0].Share < 0.6 {
		t.Errorf("DagProtobuf share = %.2f, want dominant", rep.Tab1.Rows[0].Share)
	}

	// Table II: US leads with roughly the Table II share.
	if len(rep.Tab2.Rows) == 0 {
		t.Fatal("table2 empty")
	}
	if rep.Tab2.Rows[0].Country != "US" {
		t.Errorf("top country = %s, want US", rep.Tab2.Rows[0].Country)
	}
	if rep.Tab2.Rows[0].Share < 0.30 || rep.Tab2.Rows[0].Share > 0.60 {
		t.Errorf("US share = %.2f, want ≈ 0.46", rep.Tab2.Rows[0].Share)
	}

	// Fig. 5: most CIDs requested by one peer; power law rejected for URP.
	if rep.Fig5.URPShare1 < 0.5 {
		t.Errorf("URP share-1 = %.2f, want high (paper >0.8)", rep.Fig5.URPShare1)
	}

	// Fig. 6: gateway traffic visible and megagate dominates gateway share.
	gw, mg, ng := rep.Fig6.Totals()
	if gw <= 0 || ng <= 0 {
		t.Errorf("fig6 rates: gw=%.3f ng=%.3f", gw, ng)
	}
	if mg <= 0 || mg > gw {
		t.Errorf("megagate rate %.3f vs all gateways %.3f", mg, gw)
	}

	// Sec. VI-B: all functional gateways identified; all discovered IDs
	// correct.
	if rep.GatewaysProbed == 0 || rep.GatewaysIdentified < rep.GatewaysProbed*3/4 {
		t.Errorf("gateways identified %d of %d", rep.GatewaysIdentified, rep.GatewaysProbed)
	}
	if rep.GatewayIDsFound == 0 || rep.GatewayIDsCorrect != rep.GatewayIDsFound {
		t.Errorf("gateway IDs: %d found, %d correct", rep.GatewayIDsFound, rep.GatewayIDsCorrect)
	}

	// The report must render without panicking and mention key sections.
	text := rep.Render()
	for _, want := range []string{"Table I", "Table II", "Fig. 5", "Fig. 6", "Sec. V-C", "Sec. VI-B"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing section %q", want)
		}
	}
}

// TestRunUpgrade verifies the Fig. 4 transition: WANT_BLOCK dominates early
// buckets, WANT_HAVE dominates late buckets.
func TestRunUpgrade(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	spec := sweep.UpgradeSpec(120, 3)
	spec.Seed = 7
	rep, err := RunUpgrade(spec)
	if err != nil {
		t.Fatal(err)
	}
	buckets := rep.Fig4.Buckets
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
	if rep.Fig4.BucketSize != 24*time.Hour {
		t.Errorf("bucket size = %v", rep.Fig4.BucketSize)
	}
	if !strings.Contains(rep.Render(), wire.WantHave.String()) {
		t.Error("render missing WANT_HAVE column")
	}
}
