package monitor

import (
	"fmt"
	"testing"
	"time"

	"bitswapmon/internal/bitswap"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/node"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

type world struct {
	net   *simnet.Network
	nodes []*node.Node
	mon   *Monitor
}

func build(t *testing.T, n int, seed int64) *world {
	t.Helper()
	net := simnet.New(t0, seed, simnet.Fixed(2*time.Millisecond))
	rng := net.NewRand("montest")
	w := &world{net: net}
	for i := 0; i < n; i++ {
		id := simnet.RandomNodeID(rng)
		nd, err := node.New(net, id, fmt.Sprintf("10.9.0.%d:4001", i), simnet.RegionUS, node.Config{ChunkSize: 512, Bitswap: bitswap.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		w.nodes = append(w.nodes, nd)
	}
	mon, err := New(net, "us", "3.0.0.99:4001", simnet.RegionUS)
	if err != nil {
		t.Fatal(err)
	}
	w.mon = mon
	boot := []dht.PeerInfo{w.nodes[0].Info()}
	mon.Start(boot)
	for _, nd := range w.nodes {
		nd.Start(boot)
		for _, other := range w.nodes {
			if other.ID != nd.ID {
				_ = net.Connect(nd.ID, other.ID)
			}
		}
		_ = net.Connect(nd.ID, mon.ID())
	}
	net.Run(time.Second)
	return w
}

func TestMonitorRecordsBroadcasts(t *testing.T) {
	w := build(t, 4, 1)
	ghost := cid.Sum(cid.Raw, []byte("wanted"))
	w.nodes[1].Request(ghost, func([]byte, bool) {})
	w.net.Run(5 * time.Second)

	entries := w.mon.Trace()
	if len(entries) == 0 {
		t.Fatal("monitor recorded nothing")
	}
	found := false
	for _, e := range entries {
		if e.CID.Equal(ghost) && e.NodeID == w.nodes[1].ID && e.Type == wire.WantHave {
			found = true
			if e.Monitor != "us" {
				t.Errorf("monitor label = %q", e.Monitor)
			}
			if e.Addr != "10.9.0.1:4001" {
				t.Errorf("addr = %q", e.Addr)
			}
		}
	}
	if !found {
		t.Error("expected want entry not recorded")
	}
}

func TestMonitorRecordsCancels(t *testing.T) {
	w := build(t, 3, 2)
	ghost := cid.Sum(cid.Raw, []byte("cancel me"))
	w.nodes[1].Request(ghost, func([]byte, bool) {})
	w.net.Run(2 * time.Second)
	w.nodes[1].CancelRequest(ghost)
	w.net.Run(2 * time.Second)

	sawCancel := false
	for _, e := range w.mon.Trace() {
		if e.CID.Equal(ghost) && e.Type == wire.Cancel {
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Error("CANCEL not recorded")
	}
}

func TestMonitorIsPassive(t *testing.T) {
	w := build(t, 4, 3)
	root, err := w.nodes[0].Publish([]byte("content"))
	if err != nil {
		t.Fatal(err)
	}
	w.net.Run(2 * time.Second)
	w.nodes[2].FetchFile(root, func([]byte, bool) {})
	w.net.Run(10 * time.Second)

	// The monitor must never have issued a want of its own: check every
	// node's ledger for the monitor's ID.
	for _, nd := range w.nodes {
		if wl := nd.Bitswap.WantlistOf(w.mon.ID()); len(wl) != 0 {
			t.Errorf("monitor sent wants to %s: %v", nd.ID, wl)
		}
	}
	if st := w.mon.Node.Bitswap.Stats(); st.BroadcastsSent != 0 {
		t.Errorf("monitor broadcast %d times", st.BroadcastsSent)
	}
}

func TestMonitorAnswersLikeEmptyNode(t *testing.T) {
	// Indistinguishability: a WANT_HAVE to the monitor gets DONT_HAVE,
	// like any node that does not store the block.
	w := build(t, 3, 4)
	ghost := cid.Sum(cid.Raw, []byte("probe the monitor"))
	w.nodes[0].Request(ghost, func([]byte, bool) {})
	w.net.Run(3 * time.Second)
	if st := w.mon.Node.Bitswap.Stats(); st.DontHavesServed == 0 {
		t.Error("monitor did not answer DONT_HAVE; distinguishable from a regular node")
	}
}

func TestPeersSeenAndActive(t *testing.T) {
	w := build(t, 5, 5)
	seen := w.mon.PeersSeen()
	if len(seen) < 5 {
		t.Errorf("peers seen = %d, want >= 5", len(seen))
	}
	// Only node 1 becomes Bitswap-active.
	w.nodes[1].Request(cid.Sum(cid.Raw, []byte("activity")), func([]byte, bool) {})
	w.net.Run(3 * time.Second)
	active := w.mon.BitswapActivePeers()
	if !active[w.nodes[1].ID] {
		t.Error("active node not marked")
	}
	if active[w.nodes[3].ID] {
		t.Error("inactive node marked active")
	}
}

func TestResetTrace(t *testing.T) {
	w := build(t, 3, 6)
	w.nodes[1].Request(cid.Sum(cid.Raw, []byte("pre")), func([]byte, bool) {})
	w.net.Run(2 * time.Second)
	old := w.mon.ResetTrace()
	if len(old) == 0 {
		t.Fatal("warmup trace empty")
	}
	if len(w.mon.Trace()) != 0 {
		t.Error("trace not cleared")
	}
}

func TestSampler(t *testing.T) {
	w := build(t, 4, 7)
	mon2, err := New(w.net, "de", "78.0.0.99:4001", simnet.RegionDE)
	if err != nil {
		t.Fatal(err)
	}
	mon2.Start([]dht.PeerInfo{w.nodes[0].Info()})
	// Connect a subset to mon2: overlap of 2.
	_ = w.net.Connect(w.nodes[0].ID, mon2.ID())
	_ = w.net.Connect(w.nodes[1].ID, mon2.ID())

	s := NewSampler(w.net, []*Monitor{w.mon, mon2}, time.Minute)
	s.Start()
	w.net.Run(5 * time.Minute)
	s.Stop()
	samples := s.Samples()
	if len(samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(samples))
	}
	per, union, inter := s.Averages()
	if len(per) != 2 {
		t.Fatal("per-monitor averages wrong length")
	}
	if per[0] < per[1] {
		t.Errorf("us should have more peers: %v", per)
	}
	if union < per[0] || inter <= 0 {
		t.Errorf("union=%v inter=%v per=%v", union, inter, per)
	}
	// Intersection counts only dual-connected peers.
	if inter > per[1] {
		t.Errorf("intersection %v exceeds smaller monitor %v", inter, per[1])
	}
}

func TestSamplerEmpty(t *testing.T) {
	w := build(t, 2, 8)
	s := NewSampler(w.net, []*Monitor{w.mon}, time.Minute)
	per, union, inter := s.Averages()
	if per != nil || union != 0 || inter != 0 {
		t.Error("empty sampler averages not zero")
	}
}

func TestPeerIDUniform01Bounds(t *testing.T) {
	w := build(t, 5, 9)
	for _, v := range w.mon.PeerIDUniform01() {
		if v < 0 || v >= 1 {
			t.Fatalf("uniform01 out of range: %v", v)
		}
	}
}

func TestMonitorSinkInjection(t *testing.T) {
	w := build(t, 4, 10)
	mem := ingest.NewMemorySink()
	w.mon.SetSink(ingest.Tee(mem))

	w.nodes[1].Request(cid.Sum(cid.Raw, []byte("streamed")), func([]byte, bool) {})
	w.net.Run(3 * time.Second)

	if err := w.mon.SinkErr(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	if mem.Len() == 0 {
		t.Fatal("injected sink received nothing")
	}
	// With a non-memory sink installed (Tee is opaque), the monitor holds
	// no trace of its own.
	if got := w.mon.Trace(); got != nil {
		t.Errorf("Trace() = %d entries, want nil with external sink", len(got))
	}
	if w.mon.ResetTrace() != nil {
		t.Error("memory-sink accessors leaked data from external sink")
	}

	// Re-installing a memory sink restores Trace().
	w.mon.SetSink(ingest.NewMemorySink())
	w.nodes[2].Request(cid.Sum(cid.Raw, []byte("back to memory")), func([]byte, bool) {})
	w.net.Run(3 * time.Second)
	if len(w.mon.Trace()) == 0 {
		t.Error("memory sink not restored")
	}
}

func TestTraceSnapshotIsStable(t *testing.T) {
	w := build(t, 3, 11)
	w.nodes[1].Request(cid.Sum(cid.Raw, []byte("snap")), func([]byte, bool) {})
	w.net.Run(3 * time.Second)
	snap := w.mon.Trace()
	if len(snap) == 0 {
		t.Fatal("no entries")
	}
	snap[0].Monitor = "corrupted"
	if got := w.mon.Trace()[0].Monitor; got != "us" {
		t.Errorf("monitor state corrupted through Trace(): %q", got)
	}
}

// quietNode is a pure traffic source: it ignores whatever comes back.
type quietNode struct{}

func (quietNode) HandleMessage(simnet.NodeID, any) {}
func (quietNode) PeerConnected(simnet.NodeID)      {}
func (quietNode) PeerDisconnected(simnet.NodeID)   {}

// TestShardedMonitorStampsExactEventTime: with several shards Now advances
// once per lookahead window, so two messages delivered inside one window
// must still be recorded at their own delivery times, not both at the
// window's start.
func TestShardedMonitorStampsExactEventTime(t *testing.T) {
	const lat = 20 * time.Millisecond
	net := simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 2, Latency: simnet.Fixed(lat)})
	if net.Lookahead() != lat {
		t.Fatalf("lookahead = %v, want the fixed latency %v", net.Lookahead(), lat)
	}
	mon, err := New(net, "us", "3.0.0.99:4001", simnet.RegionUS)
	if err != nil {
		t.Fatal(err)
	}
	sender := simnet.DeriveNodeID([]byte("sender"))
	if err := net.AddNode(sender, "10.9.0.1:4001", simnet.RegionUS, 0, quietNode{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(sender, mon.ID()); err != nil {
		t.Fatal(err)
	}
	// Sent 1 ms and 3 ms into the first window, both arrive inside the
	// second, [lat, 2·lat).
	offsets := []time.Duration{time.Millisecond, 3 * time.Millisecond}
	for i, off := range offsets {
		msg := &wire.Message{Wantlist: []wire.Entry{{Type: wire.WantHave, CID: cid.Sum(cid.Raw, []byte{byte(i)})}}}
		net.AfterOn(sender, off, func() { _ = net.Send(sender, mon.ID(), msg) })
	}
	net.Run(time.Second)

	entries := mon.Trace()
	if len(entries) != len(offsets) {
		t.Fatalf("recorded %d entries, want %d", len(entries), len(offsets))
	}
	for i, off := range offsets {
		if want := t0.Add(off + lat); !entries[i].Timestamp.Equal(want) {
			t.Errorf("entry %d stamped %v, want %v", i, entries[i].Timestamp.Sub(t0), want.Sub(t0))
		}
	}
}
