package attacks

import (
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/gateway"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/workload"
)

// testWorld is a built world whose two monitors each write into a memory
// sink.
type testWorld struct {
	*workload.World
	mems [2]*ingest.MemorySink
}

func buildWorld(t *testing.T, seed int64) *testWorld {
	t.Helper()
	w, err := workload.Build(workload.Config{
		Seed:         seed,
		Nodes:        120,
		CatalogItems: 200,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		Gateways: []workload.OperatorSpec{
			{Name: "megagate", Nodes: 3, RequestsPerHour: 100, HotBias: 0.9, Functional: true, CacheTTL: workload.Duration(time.Hour)},
			{Name: "brokengw", Nodes: 1, RequestsPerHour: 10, HotBias: 0.5, Functional: false, CacheTTL: workload.Duration(time.Hour)},
		},
		BootstrapServers:    8,
		MeanRequestsPerHour: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tw := &testWorld{World: w}
	for i, m := range w.Monitors {
		tw.mems[i] = ingest.NewMemorySink()
		m.SetSink(tw.mems[i])
	}
	return tw
}

func unifiedTrace(w *testWorld) []trace.Entry {
	return trace.Unify(w.mems[0].Snapshot(), w.mems[1].Snapshot())
}

func TestIDWIdentifiesWanters(t *testing.T) {
	w := buildWorld(t, 1)
	w.Run(3 * time.Hour)
	entries := trace.Deduplicated(unifiedTrace(w))
	idx := BuildIDW(entries)
	if idx.CIDCount() == 0 {
		t.Fatal("empty IDW index")
	}

	// The hottest catalog item must have observed wanters.
	hot := w.Catalog.Items[0]
	wanters := idx.UniqueWanters(hot.Root)
	if len(wanters) == 0 {
		t.Fatalf("no wanters observed for hot item %s", hot.Root)
	}
	sightings := idx.Wanters(hot.Root)
	for i := 1; i < len(sightings); i++ {
		if sightings[i].At.Before(sightings[i-1].At) {
			t.Fatal("sightings not time-ordered")
		}
	}
}

func TestTNWTracksSingleNode(t *testing.T) {
	w := buildWorld(t, 2)
	w.Run(3 * time.Hour)
	entries := trace.Deduplicated(unifiedTrace(w))

	// Find the most active observed node.
	counts := map[simnet.NodeID]int{}
	for _, e := range entries {
		if e.IsRequest() {
			counts[e.NodeID]++
		}
	}
	var target simnet.NodeID
	best := 0
	for id, c := range counts {
		if c > best {
			best, target = c, id
		}
	}
	if best == 0 {
		t.Fatal("no active nodes observed")
	}
	wants := TrackNodeWants(entries, target)
	if len(wants) != best {
		t.Errorf("TNW returned %d wants, expected %d", len(wants), best)
	}
	for _, e := range wants {
		if e.NodeID != target {
			t.Fatal("TNW leaked another node's entries")
		}
	}
	profile := ProfileNode(entries, target)
	if profile.Requests != best || profile.UniqueCIDs == 0 {
		t.Errorf("profile = %+v", profile)
	}
	if profile.Last.Before(profile.First) {
		t.Error("profile time bounds inverted")
	}
}

func TestTPIDetectsCachedContent(t *testing.T) {
	w := buildWorld(t, 3)
	w.Run(time.Hour)

	// Pick a stable node and make it fetch a known resolvable item.
	var victim *workload.ScenarioNode
	for _, sn := range w.Nodes {
		if sn.Stable && w.Net.IsOnline(sn.N.ID) {
			victim = sn
			break
		}
	}
	if victim == nil {
		t.Fatal("no stable victim found")
	}
	var fetched cid.CID
	for _, item := range w.Catalog.Items {
		if item.Resolvable && !item.MultiBlock && !victim.N.Store.Has(item.Root) {
			fetched = item.Root
			break
		}
	}
	if !fetched.Defined() {
		t.Fatal("no suitable item")
	}
	okFetch := false
	victim.N.Request(otrace.Ctx{}, fetched, func(_ []byte, ok bool) { okFetch = ok })
	w.Run(2 * time.Minute)
	if !okFetch {
		t.Fatal("victim fetch failed")
	}

	prober, err := NewProber(w.Net, "tpi", "201.0.0.1:4001", simnet.RegionOther)
	if err != nil {
		t.Fatal(err)
	}

	gotHas, gotAnswered := false, false
	prober.TestPastInterest(victim.N.ID, fetched, 10*time.Second, func(hasIt, answered bool) {
		gotHas, gotAnswered = hasIt, answered
	})
	w.Run(time.Minute)
	if !gotAnswered || !gotHas {
		t.Errorf("TPI positive probe: hasIt=%v answered=%v", gotHas, gotAnswered)
	}

	// Negative control: a CID the victim never touched.
	ghost := cid.Sum(cid.Raw, []byte("never requested by victim"))
	gotHas2, gotAnswered2 := true, false
	prober.TestPastInterest(victim.N.ID, ghost, 10*time.Second, func(hasIt, answered bool) {
		gotHas2, gotAnswered2 = hasIt, answered
	})
	w.Run(time.Minute)
	if !gotAnswered2 {
		t.Error("TPI negative probe not answered (SendDontHave set)")
	}
	if gotHas2 {
		t.Error("TPI false positive")
	}
}

func TestTPIOfflineTarget(t *testing.T) {
	w := buildWorld(t, 4)
	w.Run(30 * time.Minute)
	var victim *workload.ScenarioNode
	for _, sn := range w.Nodes {
		if !w.Net.IsOnline(sn.N.ID) {
			victim = sn
			break
		}
	}
	if victim == nil {
		t.Skip("all nodes online")
	}
	prober, err := NewProber(w.Net, "tpi2", "201.0.0.2:4001", simnet.RegionOther)
	if err != nil {
		t.Fatal(err)
	}
	answered := true
	prober.TestPastInterest(victim.N.ID, cid.Sum(cid.Raw, []byte("x")), 5*time.Second, func(_, a bool) {
		answered = a
	})
	w.Run(30 * time.Second)
	if answered {
		t.Error("probe of offline target reported an answer")
	}
}

func TestGatewayProbeDiscoversNodeIDs(t *testing.T) {
	w := buildWorld(t, 5)
	w.Run(time.Hour)

	prober := NewGatewayProber(w.Net, w.Monitors, w.Net.NewRand("gwprobe"))
	var results []ProbeResult
	prober.ProbeAll(w.Registry, func(r []ProbeResult) { results = r })
	w.Run(time.Hour)
	if len(results) != len(w.Registry.All()) {
		t.Fatalf("probed %d of %d gateways", len(results), len(w.Registry.All()))
	}

	truth := w.Registry.NodeIDs()
	identified, totalIDs, correct := CrossReference(results, truth)
	if identified < len(results)*3/4 {
		t.Errorf("identified %d of %d gateways", identified, len(results))
	}
	if totalIDs == 0 || correct != totalIDs {
		t.Errorf("discovered %d IDs, %d correct (all discovered IDs must be gateways)", totalIDs, correct)
	}

	// The broken-HTTP gateway must fail HTTP-side yet still leak its ID.
	for _, r := range results {
		if r.GatewayName[:8] == "brokengw" {
			if r.HTTPFunctional {
				t.Error("broken gateway reported functional HTTP")
			}
			if len(r.DiscoveredIDs) == 0 {
				t.Error("broken gateway leaked no node ID")
			}
		} else if r.HTTPStatus != gateway.StatusOK {
			t.Errorf("functional gateway %s returned %d", r.GatewayName, r.HTTPStatus)
		}
	}
}

func TestProbeUniqueCIDs(t *testing.T) {
	w := buildWorld(t, 6)
	prober := NewGatewayProber(w.Net, w.Monitors, w.Net.NewRand("gwprobe2"))
	c1 := prober.randomBlock()
	c2 := prober.randomBlock()
	if c1.Equal(c2) {
		t.Error("probe CIDs collide")
	}
}
