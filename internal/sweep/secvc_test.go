package sweep

import (
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/dht"
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
