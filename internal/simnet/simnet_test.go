package simnet

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// recorder is a Handler that records everything it sees.
type recorder struct {
	msgs    []any
	froms   []NodeID
	conns   []NodeID
	disconn []NodeID
}

func (r *recorder) HandleMessage(from NodeID, msg any) {
	r.froms = append(r.froms, from)
	r.msgs = append(r.msgs, msg)
}
func (r *recorder) PeerConnected(p NodeID)    { r.conns = append(r.conns, p) }
func (r *recorder) PeerDisconnected(p NodeID) { r.disconn = append(r.disconn, p) }

func newPair(t *testing.T, lm *LatencyModel) (*Network, NodeID, *recorder, NodeID, *recorder) {
	t.Helper()
	n := New(t0, 1, lm)
	a, b := DeriveNodeID([]byte("a")), DeriveNodeID([]byte("b"))
	ra, rb := &recorder{}, &recorder{}
	if err := n.AddNode(a, "10.0.0.1:4001", RegionUS, 0, ra); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode(b, "10.0.0.2:4001", RegionDE, 0, rb); err != nil {
		t.Fatal(err)
	}
	return n, a, ra, b, rb
}

func TestConnectAndSend(t *testing.T) {
	n, a, _, b, rb := newPair(t, Fixed(10*time.Millisecond))
	if err := n.Connect(a, b); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if !slices.Contains(n.Peers(a), b) || !slices.Contains(n.Peers(b), a) {
		t.Error("connection not bidirectional")
	}
	if err := n.Send(a, b, "hello"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if len(rb.msgs) != 0 {
		t.Error("message delivered before Run")
	}
	n.Run(time.Second)
	if len(rb.msgs) != 1 || rb.msgs[0] != "hello" || rb.froms[0] != a {
		t.Errorf("delivery: msgs=%v froms=%v", rb.msgs, rb.froms)
	}
	if got := n.Now(); !got.Equal(t0.Add(time.Second)) {
		t.Errorf("clock = %v", got)
	}
}

func TestSendRequiresConnection(t *testing.T) {
	n, a, _, b, _ := newPair(t, nil)
	if err := n.Send(a, b, "x"); err == nil {
		t.Error("Send without connection succeeded")
	}
}

func TestConnectErrors(t *testing.T) {
	n, a, _, b, _ := newPair(t, nil)
	if err := n.Connect(a, a); err != ErrSelfDial {
		t.Errorf("self dial: %v", err)
	}
	ghost := DeriveNodeID([]byte("ghost"))
	if err := n.Connect(a, ghost); err == nil {
		t.Error("connect to unknown node succeeded")
	}
	if err := n.SetOnline(b, false); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(a, b); err != ErrOffline {
		t.Errorf("connect to offline node: %v", err)
	}
}

func TestCapacityLimit(t *testing.T) {
	n := New(t0, 1, nil)
	hub := DeriveNodeID([]byte("hub"))
	if err := n.AddNode(hub, "h:1", RegionUS, 2, &recorder{}); err != nil {
		t.Fatal(err)
	}
	var ids []NodeID
	for i := 0; i < 3; i++ {
		id := RandomNodeID(rand.New(rand.NewSource(int64(i))))
		ids = append(ids, id)
		if err := n.AddNode(id, "x:1", RegionUS, 0, &recorder{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Connect(ids[0], hub); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(ids[1], hub); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(ids[2], hub); !errors.Is(err, ErrAtCapacity) {
		t.Errorf("expected ErrAtCapacity, got %v", err)
	}
	// Unlimited nodes (maxConns=0) accept arbitrarily many.
	if n.PeerCount(hub) != 2 {
		t.Errorf("hub peers = %d", n.PeerCount(hub))
	}
}

func TestChurnTearsDownConnections(t *testing.T) {
	n, a, ra, b, rb := newPair(t, nil)
	if err := n.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := n.SetOnline(b, false); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(n.Peers(a), b) {
		t.Error("connection survived churn")
	}
	if len(ra.disconn) != 1 || len(rb.disconn) != 1 {
		t.Errorf("disconnect callbacks: a=%d b=%d", len(ra.disconn), len(rb.disconn))
	}
}

func TestInFlightMessageDroppedOnDisconnect(t *testing.T) {
	n, a, _, b, rb := newPair(t, Fixed(50*time.Millisecond))
	if err := n.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(a, b, "doomed"); err != nil {
		t.Fatal(err)
	}
	n.Disconnect(a, b)
	n.Run(time.Second)
	if len(rb.msgs) != 0 {
		t.Error("in-flight message delivered after disconnect")
	}
	_, dropped := n.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
}

func TestTimerOrdering(t *testing.T) {
	n := New(t0, 1, nil)
	var order []int
	n.After(30*time.Millisecond, func() { order = append(order, 3) })
	n.After(10*time.Millisecond, func() { order = append(order, 1) })
	n.After(20*time.Millisecond, func() { order = append(order, 2) })
	n.After(10*time.Millisecond, func() { order = append(order, 11) }) // same time: FIFO by seq? seq is later
	n.Run(time.Second)
	if len(order) != 4 || order[0] != 1 || order[1] != 11 || order[2] != 2 || order[3] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	n := New(t0, 1, nil)
	fired := false
	n.After(2*time.Second, func() { fired = true })
	n.Run(time.Second)
	if fired {
		t.Error("event past deadline fired")
	}
	n.Run(2 * time.Second)
	if !fired {
		t.Error("event never fired")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []NodeID {
		n := New(t0, 42, nil)
		rng := n.NewRand("nodes")
		var ids []NodeID
		for i := 0; i < 20; i++ {
			id := RandomNodeID(rng)
			ids = append(ids, id)
			if err := n.AddNode(id, "x:1", RegionUS, 0, &recorder{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < 20; i++ {
			if err := n.Connect(ids[0], ids[i]); err != nil {
				t.Fatal(err)
			}
			if err := n.Send(ids[0], ids[i], i); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(time.Second)
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node IDs diverge at %d", i)
		}
	}
}

func TestNodeIDXOR(t *testing.T) {
	a := DeriveNodeID([]byte("x"))
	b := DeriveNodeID([]byte("y"))
	if a.XOR(a) != (NodeID{}) {
		t.Error("a^a != 0")
	}
	if a.XOR(b) != b.XOR(a) {
		t.Error("XOR not symmetric")
	}
	if (NodeID{}).CommonPrefixLen(NodeID{}) != 256 {
		t.Error("common prefix of equal IDs != 256")
	}
	var one NodeID
	one[31] = 1
	if got := one.CommonPrefixLen(NodeID{}); got != 255 {
		t.Errorf("common prefix of 1 and 0 = %d", got)
	}
	if !(NodeID{}).Less(one) || one.Less(NodeID{}) {
		t.Error("Less ordering broken")
	}
}

func TestUniform01Range(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		v := RandomNodeID(rng).Uniform01()
		if v < 0 || v >= 1 {
			t.Fatalf("Uniform01 out of range: %v", v)
		}
	}
}

func TestUniform01IsUniformish(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += RandomNodeID(rng).Uniform01()
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Errorf("mean of Uniform01 = %v, want ~0.5", mean)
	}
}

func TestLatencyModelBaseFor(t *testing.T) {
	lm := DefaultLatencyModel()
	if d := lm.BaseFor(RegionDE, RegionNL); d != 12*time.Millisecond {
		t.Errorf("intra-EU latency = %v", d)
	}
	if d := lm.BaseFor(RegionDE, RegionUS); d != 55*time.Millisecond {
		t.Errorf("transatlantic latency = %v", d)
	}
	if d := lm.BaseFor("ZZ", "QQ"); d != lm.Default {
		t.Errorf("unknown pair latency = %v", d)
	}
}

func TestAddrAndRegion(t *testing.T) {
	n, a, _, _, _ := newPair(t, nil)
	addr, ok := n.Addr(a)
	if !ok || addr != "10.0.0.1:4001" {
		t.Errorf("Addr = %q, %v", addr, ok)
	}
	r, _ := n.Ref(a)
	if reg := n.regions[n.region[r]]; reg != RegionUS {
		t.Errorf("Region = %q", reg)
	}
	if _, ok := n.Addr(DeriveNodeID([]byte("ghost"))); ok {
		t.Error("Addr of unknown node succeeded")
	}
}

func TestDuplicateAddNode(t *testing.T) {
	n, a, _, _, _ := newPair(t, nil)
	if err := n.AddNode(a, "dup:1", RegionUS, 0, &recorder{}); err == nil {
		t.Error("duplicate AddNode succeeded")
	}
}
