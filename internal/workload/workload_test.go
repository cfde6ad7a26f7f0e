package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
)

// record points every monitor of w at a memory sink of its own, in
// w.Monitors order.
func record(w *World) []*ingest.MemorySink {
	mems := make([]*ingest.MemorySink, len(w.Monitors))
	for i, m := range w.Monitors {
		mems[i] = ingest.NewMemorySink()
		m.SetSink(mems[i])
	}
	return mems
}

func smallConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		Nodes:        150,
		CatalogItems: 300,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		Gateways: []OperatorSpec{
			{Name: "megagate", Nodes: 4, RequestsPerHour: 200, HotBias: 0.95, Functional: true, CacheTTL: Duration(time.Hour)},
			{Name: "smallgw", Nodes: 2, RequestsPerHour: 20, HotBias: 0.5, Functional: true, CacheTTL: Duration(time.Hour)},
		},
		BootstrapServers:    10,
		MeanRequestsPerHour: 3,
	}
}

func TestBuildWorld(t *testing.T) {
	w, err := Build(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Monitors) != 2 {
		t.Fatalf("monitors = %d", len(w.Monitors))
	}
	if len(w.Gateways) != 6 {
		t.Fatalf("gateways = %d", len(w.Gateways))
	}
	if w.TotalPopulation() != 150+10 {
		t.Fatalf("population = %d", w.TotalPopulation())
	}
	if w.Catalog == nil || len(w.Catalog.Items) != 300 {
		t.Fatal("catalog missing")
	}
	// All resolvable items must have defined roots.
	for i, item := range w.Catalog.Items {
		if !item.Root.Defined() {
			t.Fatalf("item %d has undefined root", i)
		}
	}
}

func TestWorldProducesObservableTraffic(t *testing.T) {
	w, err := Build(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	mems := record(w)
	w.Run(4 * time.Hour)

	var us, de []trace.Entry
	for i, m := range w.Monitors {
		switch m.Name {
		case "us":
			us = mems[i].Snapshot()
		case "de":
			de = mems[i].Snapshot()
		}
	}
	if len(us) == 0 || len(de) == 0 {
		t.Fatalf("monitors recorded nothing: us=%d de=%d", len(us), len(de))
	}

	unified := trace.Unify(us, de)
	z := trace.NewSummarizerWith(trace.NewSymbols())
	for _, e := range unified {
		z.Write(e)
	}
	sum := z.Summary()
	if sum.UniquePeers < 20 {
		t.Errorf("unique peers in trace = %d, want dozens", sum.UniquePeers)
	}
	if sum.UniqueCIDs < 20 {
		t.Errorf("unique CIDs = %d", sum.UniqueCIDs)
	}
	// Both duplicate phenomena must be present in a two-monitor setup.
	if sum.Rebroadcasts == 0 {
		t.Error("no rebroadcasts observed (unresolvable CIDs should cause them)")
	}
	if sum.InterMonDups == 0 {
		t.Error("no inter-monitor duplicates observed")
	}
}

func TestMonitorCoverageMatchesJointModel(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Nodes = 400
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(2 * time.Hour)

	us, de := w.Monitors[0], w.Monitors[1]
	online := 0
	both, onlyA, onlyB := 0, 0, 0
	usPeers := make(map[simnet.NodeID]bool)
	for _, p := range us.CurrentPeers() {
		usPeers[p] = true
	}
	dePeers := make(map[simnet.NodeID]bool)
	for _, p := range de.CurrentPeers() {
		dePeers[p] = true
	}
	for _, sn := range w.Nodes {
		if !w.Net.IsOnline(sn.N.ID) {
			continue
		}
		online++
		switch {
		case usPeers[sn.N.ID] && dePeers[sn.N.ID]:
			both++
		case usPeers[sn.N.ID]:
			onlyA++
		case dePeers[sn.N.ID]:
			onlyB++
		}
	}
	if online == 0 {
		t.Fatal("no nodes online")
	}
	gotBoth := float64(both) / float64(online)
	if gotBoth < 0.25 || gotBoth > 0.50 {
		t.Errorf("P(both monitors) = %.2f, want ≈ 0.36", gotBoth)
	}
	covUS := float64(both+onlyA) / float64(online)
	if covUS < 0.40 || covUS > 0.70 {
		t.Errorf("us coverage = %.2f, want ≈ 0.54", covUS)
	}
}

func TestCatalogCodecMix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cat := BuildCatalog(5000, rng)
	counts := map[cid.Codec]int{}
	for _, item := range cat.Items {
		counts[item.Codec]++
	}
	dagPBShare := float64(counts[cid.DagProtobuf]) / 5000
	if dagPBShare < 0.82 || dagPBShare > 0.90 {
		t.Errorf("DagProtobuf share = %.3f, want ≈ 0.86", dagPBShare)
	}
	rawShare := float64(counts[cid.Raw]) / 5000
	if rawShare < 0.10 || rawShare > 0.17 {
		t.Errorf("Raw share = %.3f, want ≈ 0.134", rawShare)
	}
}

func TestCatalogSampleRespectsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cat := BuildCatalog(100, rng)
	cat.finalize()
	hot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if cat.Sample(rng).Hot {
			hot++
		}
	}
	// 10 hot items with weight ~100-200 vs 90 lognormal(σ=2.0) items:
	// hot should dominate.
	if share := float64(hot) / draws; share < 0.5 {
		t.Errorf("hot share = %.2f, want > 0.5", share)
	}
}

func TestCatalogSampleEmptySafe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	empty := &Catalog{}
	if item := empty.Sample(rng); item != nil {
		t.Fatalf("empty catalog sampled %+v, want nil", item)
	}
}

func TestCatalogSampleZeroWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cat := &Catalog{Items: make([]Item, 10)} // all weights zero
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		item := cat.Sample(rng)
		if item == nil {
			t.Fatal("zero-weight catalog sampled nil")
		}
		for j := range cat.Items {
			if item == &cat.Items[j] {
				seen[j] = true
			}
		}
	}
	// Zero total weight falls back to a uniform draw: every index shows up.
	if len(seen) != len(cat.Items) {
		t.Errorf("uniform fallback hit %d/%d items", len(seen), len(cat.Items))
	}
}

func TestCatalogSampleSanitizesBadWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat := &Catalog{Items: []Item{
		{Weight: -5},
		{Weight: math.NaN()},
		{Weight: math.Inf(1)},
		{Weight: 1},
	}}
	for i := 0; i < 1000; i++ {
		item := cat.Sample(rng)
		if item != &cat.Items[3] {
			t.Fatalf("draw %d picked a zero/NaN/Inf-weight item", i)
		}
	}
}

func TestCountryWeightsSample(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	counts := map[simnet.Region]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[countries.Sample(rng)]++
	}
	usShare := float64(counts[simnet.RegionUS]) / draws
	if usShare < 0.42 || usShare > 0.49 {
		t.Errorf("US share = %.3f, want ≈ 0.456", usShare)
	}
}

func TestChurnChangesPopulation(t *testing.T) {
	cfg := smallConfig(7)
	cfg.MeanSession = Duration(30 * time.Minute)
	cfg.MeanOffline = Duration(30 * time.Minute)
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := w.OnlineCount()
	seen := map[int]bool{before: true}
	for i := 0; i < 8; i++ {
		w.Run(30 * time.Minute)
		seen[w.OnlineCount()] = true
	}
	if len(seen) < 3 {
		t.Errorf("online count never varied: %v", seen)
	}
}

func TestGatewayCacheHitRatioHigh(t *testing.T) {
	cfg := smallConfig(8)
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(6 * time.Hour)
	var hits, misses uint64
	for _, g := range w.Gateways {
		if g.Operator != "megagate" {
			continue
		}
		st := g.Stats()
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	if hits+misses == 0 {
		t.Fatal("megagate served no requests")
	}
	ratio := float64(hits) / float64(hits+misses)
	if ratio < 0.7 {
		t.Errorf("megagate cache hit ratio = %.2f, want high (Cloudflare reports 0.97)", ratio)
	}
}

func TestDiurnalFactorBounds(t *testing.T) {
	for h := 0.0; h < 24; h += 0.5 {
		for _, r := range []simnet.Region{simnet.RegionUS, simnet.RegionDE, simnet.RegionOther} {
			f := diurnalFactor(h, r)
			if f < 0.45 || f > 1.55 {
				t.Fatalf("diurnal factor out of range: %v at %v/%v", f, h, r)
			}
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	run := func() int {
		w, err := Build(smallConfig(99))
		if err != nil {
			t.Fatal(err)
		}
		mems := record(w)
		w.Run(time.Hour)
		return len(mems[0].Snapshot())
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic trace length: %d vs %d", a, b)
	}
	if a == 0 {
		t.Error("empty trace")
	}
}
