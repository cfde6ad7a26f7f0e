package sweep

import (
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/dht"
	"bitswapmon/internal/estimate"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/simnet"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

func TestSecVCRenderAndEmpty(t *testing.T) {
	sec := ComputeSecVC(nil, nil, dht.CrawlResult{}, 0, 0)
	out := sec.Render()
	if !strings.Contains(out, "Sec. V-C") {
		t.Error("render header missing")
	}
	if sec.Eq1Mean != 0 || sec.CoverageUnion != 0 {
		t.Error("empty inputs should produce zero estimates")
	}
}

// TestSecVCEq3ForThreeMonitors: with r = 3 monitors every sample's Eq. 3
// estimate is the committee occupancy of its union over r draws of the mean
// connection count, and Eq. 1, which is pairwise, stays unset.
func TestSecVCEq3ForThreeMonitors(t *testing.T) {
	peers := []monitor.PeerSets{{Monitor: "a"}, {Monitor: "b"}, {Monitor: "c"}}
	samples := []monitor.Sample{
		{PerMonitor: []int{40, 50, 60}, Union: 100},
		{PerMonitor: []int{30, 30, 45}, Union: 80},
		{PerMonitor: []int{20, 25, 30}, Union: 60},
	}
	var want []float64
	for _, s := range samples {
		w := float64(s.PerMonitor[0]+s.PerMonitor[1]+s.PerMonitor[2]) / 3
		e, err := estimate.CommitteeOccupancy(float64(s.Union), 3, w)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	mean, std := estimate.MeanStd(want)
	sec := ComputeSecVC(peers, samples, dht.CrawlResult{}, 0, 0)
	if sec.Eq3Mean != mean || sec.Eq3Std != std || mean <= 0 {
		t.Errorf("Eq. 3 = %v (std %v), want %v (std %v)", sec.Eq3Mean, sec.Eq3Std, mean, std)
	}
	if sec.Eq1Mean != 0 || sec.Eq1Std != 0 {
		t.Errorf("Eq. 1 = %v (std %v) for three monitors, want 0", sec.Eq1Mean, sec.Eq1Std)
	}
}

func TestFig3FromMonitor(t *testing.T) {
	net := simnet.New(t0, 1, simnet.Fixed(time.Millisecond))
	m, err := monitor.New(net, "us", "3.0.0.50:4001", simnet.RegionUS)
	if err != nil {
		t.Fatal(err)
	}
	rng := net.NewRand("fig3")
	for i := 0; i < 200; i++ {
		id := simnet.RandomNodeID(rng)
		if err := net.AddNode(id, "10.0.0.1:4001", simnet.RegionUS, 0, nopHandler{}); err != nil {
			t.Fatal(err)
		}
		if err := net.Connect(id, m.ID()); err != nil {
			t.Fatal(err)
		}
	}
	fig := ComputeFig3(m, 40)
	if fig.Peers != 200 || len(fig.Points) != 40 {
		t.Fatalf("fig3: peers=%d points=%d", fig.Peers, len(fig.Points))
	}
	if fig.KS > 0.15 {
		t.Errorf("KS = %v for uniform IDs", fig.KS)
	}
	if !strings.Contains(fig.Render(), "QQ plot") {
		t.Error("render header missing")
	}
}

type nopHandler struct{}

func (nopHandler) HandleMessage(simnet.NodeID, any) {}
func (nopHandler) PeerConnected(simnet.NodeID)      {}
func (nopHandler) PeerDisconnected(simnet.NodeID)   {}
