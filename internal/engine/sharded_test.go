package engine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"bitswapmon/internal/simnet"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// recHandler records deliveries and connection callbacks.
type recHandler struct {
	msgs    atomic.Int64
	conns   atomic.Int64
	disc    atomic.Int64
	lastMsg atomic.Value // string
}

func (h *recHandler) HandleMessage(from simnet.NodeID, msg any) {
	h.msgs.Add(1)
	h.lastMsg.Store(fmt.Sprint(msg))
}
func (h *recHandler) PeerConnected(p simnet.NodeID)    { h.conns.Add(1) }
func (h *recHandler) PeerDisconnected(p simnet.NodeID) { h.disc.Add(1) }

// addNodes registers n nodes and returns ids and handlers.
func addNodes(t *testing.T, s *simnet.Network, n int) ([]simnet.NodeID, []*recHandler) {
	t.Helper()
	ids := make([]simnet.NodeID, n)
	hs := make([]*recHandler, n)
	for i := range ids {
		ids[i] = simnet.DeriveNodeID([]byte{byte(i), byte(i >> 8), 0xab})
		hs[i] = &recHandler{}
		if err := s.AddNode(ids[i], fmt.Sprintf("10.0.%d.%d:4001", i>>8, i&255), simnet.RegionUS, 0, hs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return ids, hs
}

// TestShardedHashPartitionSpreadsNodes: a model without region data has no
// region partition, so nodes spread over all shards by ID hash.
func TestShardedHashPartitionSpreadsNodes(t *testing.T) {
	s := simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 4, Latency: simnet.Fixed(10 * time.Millisecond)})
	ids, _ := addNodes(t, s, 256)
	counts := make(map[int]int)
	for _, id := range ids {
		counts[s.ShardOf(id)]++
	}
	if len(counts) != 4 {
		t.Fatalf("expected nodes on all 4 shards, got %v", counts)
	}
	for sh, c := range counts {
		if c < 16 {
			t.Errorf("shard %d underpopulated: %d nodes", sh, c)
		}
	}
}

// TestShardedLatencyPartition checks the latency-aware default placement:
// with the default model, regions whose mutual base latency is below the
// chosen cross-group minimum share a shard (EU and NA merge), RegionOther
// stays apart, and the lookahead widens to the minimum cross-group latency.
func TestShardedLatencyPartition(t *testing.T) {
	s := simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 4})
	regions := []simnet.Region{
		simnet.RegionUS, simnet.RegionCA, simnet.RegionNL,
		simnet.RegionDE, simnet.RegionFR, simnet.RegionOther,
	}
	shardOf := make(map[simnet.Region]int)
	for i, r := range regions {
		id := simnet.DeriveNodeID([]byte{byte(i), 0xcd})
		if err := s.AddNode(id, "a", r, 0, &recHandler{}); err != nil {
			t.Fatal(err)
		}
		shardOf[r] = s.ShardOf(id)
	}
	main := shardOf[simnet.RegionUS]
	for _, r := range regions[:5] {
		if shardOf[r] != main {
			t.Errorf("region %s on shard %d, want %d (EU/NA group)", r, shardOf[r], main)
		}
	}
	if shardOf[simnet.RegionOther] == main {
		t.Error("RegionOther should not share the EU/NA shard")
	}
	if got := s.Lookahead(); got != 90*time.Millisecond {
		t.Errorf("lookahead %v, want 90ms (min cross-group base latency)", got)
	}
}

func TestShardedPinMovesToControl(t *testing.T) {
	s := simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 4})
	ids, _ := addNodes(t, s, 32)
	for _, id := range ids {
		s.Pin(id)
		if got := s.ShardOf(id); got != 0 {
			t.Fatalf("pinned node on shard %d", got)
		}
	}
}

func TestShardedCrossShardDelivery(t *testing.T) {
	s := simnet.NewSharded(t0, 7, simnet.ShardedConfig{Shards: 4, Latency: simnet.Fixed(10 * time.Millisecond)})
	ids, hs := addNodes(t, s, 64)
	// Connect everything to everything and flood one message per pair.
	sent := 0
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if err := s.Connect(ids[i], ids[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range ids {
		for j := range ids {
			if i == j {
				continue
			}
			if err := s.Send(ids[i], ids[j], "ping"); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	s.Run(time.Second)
	var got int64
	for _, h := range hs {
		got += h.msgs.Load()
	}
	if int(got) != sent {
		t.Fatalf("delivered %d of %d messages", got, sent)
	}
	delivered, dropped := s.Stats()
	if int(delivered) != sent || dropped != 0 {
		t.Fatalf("stats delivered=%d dropped=%d, want %d/0", delivered, dropped, sent)
	}
}

// TestShardedIdleSendAfterFarTimers: a run that ends with only far-future
// timers pending must leave a later idle send deliverable at its own time.
// The timing wheel that once held each shard's events lost exactly this
// send: each run parked a shard's wheel base at its far timer's slot, and
// the idle send was clamped into it (delivered=0, dropped=0). The DHT
// refresh timers node.Start schedules reproduce this shape across two
// staggered bootstraps.
func TestShardedIdleSendAfterFarTimers(t *testing.T) {
	s := simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 2, Latency: simnet.Fixed(10 * time.Millisecond)})
	ids, hs := addNodes(t, s, 8)
	a, b := -1, -1
	for i, id := range ids {
		if s.ShardOf(id) == 0 {
			if a < 0 {
				a = i
			}
		} else if b < 0 {
			b = i
		}
	}
	if a < 0 || b < 0 {
		t.Fatal("hash placement left a shard empty")
	}
	var farA, farB atomic.Int64
	// The later timer on one shard, then an empty run, then the earlier
	// timer on the other shard and another empty run: without the guard,
	// each run jumps its shard's base out to its timer.
	s.AfterOn(ids[a], 20*time.Minute, func() { farA.Add(1) })
	s.Run(100 * time.Millisecond)
	s.AfterOn(ids[b], 10*time.Minute, func() { farB.Add(1) })
	s.Run(100 * time.Millisecond)

	if err := s.Connect(ids[a], ids[b]); err != nil {
		t.Fatal(err)
	}
	if err := s.Send(ids[b], ids[a], "ping"); err != nil {
		t.Fatal(err)
	}
	s.Run(time.Second)
	if got := hs[a].msgs.Load(); got != 1 {
		delivered, dropped := s.Stats()
		t.Fatalf("idle send after far timers: delivered %d messages (stats delivered=%d dropped=%d), want 1", got, delivered, dropped)
	}
	// The far timers themselves must still fire once their time comes.
	s.Run(25 * time.Minute)
	if farA.Load() != 1 || farB.Load() != 1 {
		t.Fatalf("far timers fired %d/%d, want 1/1", farA.Load(), farB.Load())
	}
}

func TestShardedConnectCallbacksArrive(t *testing.T) {
	s := simnet.NewSharded(t0, 3, simnet.ShardedConfig{Shards: 4})
	ids, hs := addNodes(t, s, 16)
	for i := 1; i < len(ids); i++ {
		if err := s.Connect(ids[0], ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(time.Millisecond) // callbacks are marshalled as events
	if got := hs[0].conns.Load(); got != int64(len(ids)-1) {
		t.Fatalf("hub saw %d PeerConnected, want %d", got, len(ids)-1)
	}
	if err := s.SetOnline(ids[0], false); err != nil {
		t.Fatal(err)
	}
	s.Run(time.Millisecond)
	if got := hs[0].disc.Load(); got != int64(len(ids)-1) {
		t.Fatalf("hub saw %d PeerDisconnected, want %d", got, len(ids)-1)
	}
	if s.PeerCount(ids[0]) != 0 {
		t.Fatal("offline node still has peers")
	}
	// Messages in flight to an offline node are dropped at delivery.
	if err := s.Send(ids[1], ids[0], "x"); err == nil {
		t.Fatal("send to disconnected peer should fail")
	}
}

func TestShardedTimersFireInOrder(t *testing.T) {
	s := simnet.NewSharded(t0, 9, simnet.ShardedConfig{Shards: 2})
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.Run(10 * time.Second)
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("control timers out of order: %v", order)
	}
	if !s.Now().Equal(t0.Add(10 * time.Second)) {
		t.Fatalf("clock at %v, want %v", s.Now(), t0.Add(10*time.Second))
	}
}

// TestShardedDeadlineInclusive matches the serial engine: an event exactly
// at the run deadline fires.
func TestShardedDeadlineInclusive(t *testing.T) {
	s := simnet.NewSharded(t0, 9, simnet.ShardedConfig{Shards: 2})
	fired := false
	s.After(time.Hour, func() { fired = true })
	s.Run(time.Hour)
	if !fired {
		t.Fatal("deadline event did not fire")
	}
}

func TestShardedPeersSorted(t *testing.T) {
	s := simnet.NewSharded(t0, 5, simnet.ShardedConfig{Shards: 4})
	ids, _ := addNodes(t, s, 50)
	for i := 1; i < len(ids); i++ {
		if err := s.Connect(ids[0], ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	peers := s.Peers(ids[0])
	if len(peers) != len(ids)-1 {
		t.Fatalf("got %d peers, want %d", len(peers), len(ids)-1)
	}
	for i := 1; i < len(peers); i++ {
		if !peers[i-1].Less(peers[i]) {
			t.Fatal("peers not sorted")
		}
	}
	s.Disconnect(ids[0], ids[1])
	if slices.Contains(s.Peers(ids[0]), ids[1]) {
		t.Fatal("still connected after Disconnect")
	}
	if len(s.Peers(ids[0])) != len(ids)-2 {
		t.Fatal("sorted cache not updated on disconnect")
	}
}

func TestShardedNewRandMatchesSerial(t *testing.T) {
	// Identical seed and derivation order must give identical streams at
	// one shard and at four, so world construction is shard-independent.
	ser := simnet.New(t0, 1234, nil)
	sh := simnet.NewSharded(t0, 1234, simnet.ShardedConfig{Shards: 4})
	for _, name := range []string{"workload", "node-a", "node-b"} {
		a, b := ser.NewRand(name), sh.NewRand(name)
		for i := 0; i < 16; i++ {
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("stream %q diverges at draw %d: %d != %d", name, i, x, y)
			}
		}
	}
}

func TestShardedLookaheadFromModel(t *testing.T) {
	// Region placement groups low-latency regions, so the lookahead is the
	// minimum CROSS-GROUP base latency, not the model's global minimum.
	s := simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 2})
	if s.Lookahead() != 90*time.Millisecond {
		t.Fatalf("lookahead %v, want 90ms (default model cross-group min)", s.Lookahead())
	}
	// Without region data nodes are placed by hash, which mixes every delay
	// on every shard: the lookahead must fall back to the global minimum.
	sh := simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 2, Latency: simnet.Fixed(12 * time.Millisecond)})
	if sh.Lookahead() != 12*time.Millisecond {
		t.Fatalf("hash-partition lookahead %v, want 12ms (model min)", sh.Lookahead())
	}
	s2 := simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 2, Latency: simnet.Fixed(0)})
	if s2.Lookahead() <= 0 {
		t.Fatal("lookahead must be positive even for zero-delay models")
	}
}

// orderNode logs every event it runs into its shard's log and passes
// messages on along its region's ring.
type orderNode struct {
	s     *simnet.Network
	id    simnet.NodeID
	next  simnet.NodeID
	log   *[]orderEntry
	total int // timers scheduled, the base of send ranks
}

// orderEntry is one executed event: its virtual time and its rank in the
// (time, rank) order the shard must drain in. Timers scheduled while idle
// rank by call order; a send ranks after every timer, by the position of its
// sending event in the shard's log, which is the order the shard's heap
// received it.
type orderEntry struct {
	at   time.Duration
	rank int
}

// orderMsg is a message in flight along a ring.
type orderMsg struct{ rank, hops int }

func (o *orderNode) record(rank int) int {
	*o.log = append(*o.log, orderEntry{o.s.EventTime(o.id).Sub(t0), rank})
	return len(*o.log) - 1
}

func (o *orderNode) HandleMessage(from simnet.NodeID, msg any) {
	m := msg.(orderMsg)
	pos := o.record(m.rank)
	if m.hops < 2 && m.rank%2 == 0 {
		_ = o.s.Send(o.id, o.next, orderMsg{rank: o.total + pos, hops: m.hops + 1})
	}
}
func (o *orderNode) PeerConnected(simnet.NodeID)    {}
func (o *orderNode) PeerDisconnected(simnet.NodeID) {}

// TestShardHeapDrainsInTimeSeqOrder drives random schedules through four
// shards and requires each shard to run its events in (time, seq) order.
// Four regions 1 ms apart internally and 40 ms apart from each other give
// one region per shard and 40 ms windows, so same-region sends (1 ms, no
// jitter) land inside the window that sent them, often at the very time of
// timers scheduled earlier: equal-time ties between idle inserts and
// same-window inserts, which the earlier insert must win.
func TestShardHeapDrainsInTimeSeqOrder(t *testing.T) {
	regions := []simnet.Region{"R0", "R1", "R2", "R3"}
	lm := &simnet.LatencyModel{Base: map[[2]simnet.Region]time.Duration{}, Default: 40 * time.Millisecond}
	for _, r := range regions {
		lm.Base[[2]simnet.Region{r, r}] = time.Millisecond
	}
	s := simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 4, Latency: lm})
	if s.Lookahead() != 40*time.Millisecond {
		t.Fatalf("lookahead %v, want 40ms", s.Lookahead())
	}
	const perRegion, timers = 8, 3000
	logs := make([][]orderEntry, 4)
	var nodes []*orderNode
	for ri, r := range regions {
		for k := 0; k < perRegion; k++ {
			o := &orderNode{s: s, id: simnet.DeriveNodeID([]byte{byte(ri), byte(k), 0x0d}), total: timers}
			if err := s.AddNode(o.id, "10.0.0.1:4001", r, 0, o); err != nil {
				t.Fatal(err)
			}
			o.log = &logs[s.ShardOf(o.id)]
			nodes = append(nodes, o)
		}
	}
	for i, o := range nodes {
		o.next = nodes[i/perRegion*perRegion+(i+1)%perRegion].id
		if err := s.Connect(o.id, o.next); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < timers; i++ {
		o := nodes[rng.Intn(len(nodes))]
		s.AfterOn(o.id, time.Duration(rng.Intn(120))*time.Millisecond, func() {
			pos := o.record(i)
			if i%3 == 0 {
				_ = s.Send(o.id, o.next, orderMsg{rank: timers + pos})
			}
		})
	}
	s.Run(time.Second)

	ran := 0
	for sh, log := range logs {
		if len(log) == 0 {
			t.Fatalf("shard %d ran no events", sh)
		}
		ran += len(log)
		want := slices.Clone(log)
		slices.SortFunc(want, func(a, b orderEntry) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.rank, b.rank))
		})
		for k := range log {
			if log[k] != want[k] {
				t.Fatalf("shard %d event %d ran %+v, want %+v by (time, seq)", sh, k, log[k], want[k])
			}
		}
	}
	delivered, dropped := s.Stats()
	if ran != timers+int(delivered) || dropped != 0 {
		t.Fatalf("ran %d events, want %d timers + %d deliveries (%d dropped)", ran, timers, delivered, dropped)
	}
}
