package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bitswapmon/internal/obs"
	"bitswapmon/internal/simnet"
)

// contractEngines are the shard counts the table contract runs at.
var contractEngines = []struct {
	name string
	new  func() Engine
}{
	{"serial", func() Engine { return simnet.New(t0, 1, nil) }},
	{"sharded-4", func() Engine { return simnet.NewSharded(t0, 1, simnet.ShardedConfig{Shards: 4}) }},
}

// contractStep is one scripted table operation and the error it must give:
// nil, errAny, or a sentinel plus, for capacity errors, the node it names.
type contractStep struct {
	op    string
	do    func(Engine) error
	want  error
	names NodeID
}

// errAny marks a step that must fail without a sentinel to match.
var errAny = errors.New("any error")

// TestTableContract runs one script of membership and connection-table
// operations at every shard count. Each must give the expected errors and
// the same table, stats, send count and notification counts as every other.
func TestTableContract(t *testing.T) {
	defer simnet.EnableMetrics(obs.NewRegistry()) // keep later tests off the per-row registries
	var transcripts []string
	for _, ce := range contractEngines {
		reg := obs.NewRegistry()
		simnet.EnableMetrics(reg)
		transcript := runContract(t, ce.name, ce.new(), reg)
		if len(transcripts) > 0 && transcript != transcripts[0] {
			t.Errorf("%s diverges from %s:\n%s", ce.name, contractEngines[0].name, firstDiff(transcripts[0], transcript))
		}
		transcripts = append(transcripts, transcript)
	}
}

func runContract(t *testing.T, name string, eng Engine, reg *obs.Registry) string {
	id := func(s string) NodeID { return simnet.DeriveNodeID([]byte(s)) }
	hub, a, b, c, d, e, f, ghost := id("hub"), id("a"), id("b"), id("c"), id("d"), id("e"), id("f"), id("ghost")
	short := map[NodeID]string{hub: "hub", a: "a", b: "b", c: "c", d: "d", e: "e", f: "f", ghost: "ghost"}
	all := []NodeID{hub, a, b, c, d, e, f, ghost}
	handlers := map[NodeID]*recHandler{}
	add := func(n NodeID, region Region, maxConns int) func(Engine) error {
		return func(eng Engine) error {
			if handlers[n] == nil {
				handlers[n] = &recHandler{}
			}
			return eng.AddNode(n, short[n]+":4001", region, maxConns, handlers[n])
		}
	}
	connect := func(x, y NodeID) func(Engine) error { return func(eng Engine) error { return eng.Connect(x, y) } }
	send := func(x, y NodeID, msg string) func(Engine) error {
		return func(eng Engine) error { return eng.Send(x, y, msg) }
	}
	disconnect := func(x, y NodeID) func(Engine) error {
		return func(eng Engine) error { eng.Disconnect(x, y); return nil }
	}
	setOnline := func(x NodeID, on bool) func(Engine) error {
		return func(eng Engine) error { return eng.SetOnline(x, on) }
	}
	run := func(eng Engine) error { eng.Run(time.Second); return nil }

	var none NodeID
	script := []contractStep{
		{"add hub", add(hub, simnet.RegionUS, 3), nil, none},
		{"add a", add(a, simnet.RegionDE, 0), nil, none},
		{"add b", add(b, simnet.RegionNL, 0), nil, none},
		{"add c", add(c, simnet.RegionOther, 0), nil, none},
		{"add d", add(d, simnet.RegionUS, 0), nil, none},
		{"add e", add(e, simnet.RegionCA, 1), nil, none},
		{"add f", add(f, simnet.RegionFR, 0), nil, none},
		{"add a again", add(a, simnet.RegionUS, 0), errAny, none},
		{"self-dial", connect(a, a), simnet.ErrSelfDial, none},
		{"dial unknown", connect(a, ghost), simnet.ErrUnknownNode, none},
		{"unknown dials", connect(ghost, a), simnet.ErrUnknownNode, none},
		{"f offline", setOnline(f, false), nil, none},
		{"unknown offline", setOnline(ghost, false), simnet.ErrUnknownNode, none},
		{"dial offline", connect(a, f), simnet.ErrOffline, none},
		{"offline dials", connect(f, a), simnet.ErrOffline, none},
		{"a-hub", connect(a, hub), nil, none},
		{"b-hub", connect(b, hub), nil, none},
		{"d-hub", connect(d, hub), nil, none},
		{"a-hub again", connect(a, hub), nil, none},
		{"hub-a reversed", connect(hub, a), nil, none},
		{"e-c", connect(e, c), nil, none},
		{"target full", connect(c, hub), simnet.ErrAtCapacity, hub},
		{"dialer full", connect(hub, c), simnet.ErrAtCapacity, hub},
		{"both full, target named", connect(e, hub), simnet.ErrAtCapacity, hub},
		{"both full, reversed", connect(hub, e), simnet.ErrAtCapacity, e},
		{"dialer full only", connect(e, a), simnet.ErrAtCapacity, e},
		{"send unconnected", send(a, b, "x"), simnet.ErrNotConnected, none},
		{"send to unknown", send(a, ghost, "x"), simnet.ErrNotConnected, none},
		{"send from unknown", send(ghost, a, "x"), simnet.ErrUnknownNode, none},
		{"send doomed", send(a, hub, "doomed"), nil, none},
		{"send kept", send(b, hub, "kept"), nil, none},
		{"disconnect a-hub in flight", disconnect(a, hub), nil, none},
		{"disconnect non-edge", disconnect(a, b), nil, none},
		{"disconnect unknown", disconnect(ghost, a), nil, none},
		{"run", run, nil, none},
		{"send doomed to hub", send(d, hub, "doomed"), nil, none},
		{"hub offline", setOnline(hub, false), nil, none},
		{"hub offline again", setOnline(hub, false), nil, none},
		{"send from torn-down", send(d, hub, "x"), simnet.ErrNotConnected, none},
		{"run", run, nil, none},
		{"hub online", setOnline(hub, true), nil, none},
	}

	var out strings.Builder
	for _, st := range script {
		err := st.do(eng)
		fmt.Fprintf(&out, "%s: %v\n", st.op, err)
		switch {
		case st.want == nil && err != nil:
			t.Errorf("%s: %s: unexpected error %v", name, st.op, err)
		case st.want == errAny && err == nil:
			t.Errorf("%s: %s: succeeded, want an error", name, st.op)
		case st.want != nil && st.want != errAny && !errors.Is(err, st.want):
			t.Errorf("%s: %s: error %v, want %v", name, st.op, err, st.want)
		}
		if st.names != none && (err == nil || !strings.HasSuffix(err.Error(), st.names.String())) {
			t.Errorf("%s: %s: error %v does not name %s", name, st.op, err, short[st.names])
		}
		if st.op == "run" {
			tableState(&out, eng, all, short)
		}
	}

	delivered, dropped := eng.Stats()
	fmt.Fprintf(&out, "stats: delivered %d dropped %d\n", delivered, dropped)
	if delivered != 1 || dropped != 2 {
		t.Errorf("%s: stats delivered %d dropped %d, want 1 and 2 (both in-flight messages dropped)", name, delivered, dropped)
	}
	// Every message the engine accepted was either delivered or dropped.
	sends := reg.Snapshot()["engine_sends_total"]
	fmt.Fprintf(&out, "sends: %v\n", sends)
	if sends != float64(delivered+dropped) {
		t.Errorf("%s: engine_sends_total %v, want delivered + dropped = %d", name, sends, delivered+dropped)
	}
	wantConns := map[string][2]int64{
		"hub": {3, 3}, "a": {1, 1}, "b": {1, 1}, "d": {1, 1}, "c": {1, 0}, "e": {1, 0}, "f": {0, 0},
	}
	for _, n := range all[:7] {
		h := handlers[n]
		got := [2]int64{h.conns.Load(), h.disc.Load()}
		fmt.Fprintf(&out, "%s: connected %d disconnected %d messages %d\n", short[n], got[0], got[1], h.msgs.Load())
		if got != wantConns[short[n]] {
			t.Errorf("%s: %s saw PeerConnected/PeerDisconnected %v, want %v", name, short[n], got, wantConns[short[n]])
		}
	}
	return out.String()
}

// tableState renders everything the table answers about each node.
func tableState(out *strings.Builder, eng Engine, all []NodeID, short map[NodeID]string) {
	names := func(ids []NodeID) string {
		s := make([]string, len(ids))
		for i, id := range ids {
			s[i] = short[id]
		}
		return strings.Join(s, ",")
	}
	fmt.Fprintf(out, "nodes: %s\n", names(eng.Nodes()))
	for _, n := range all {
		addr, okA := eng.Addr(n)
		region, okR := eng.NodeRegion(n)
		var each []NodeID
		eng.PeersEach(n, func(p NodeID) bool { each = append(each, p); return true })
		var conn []NodeID
		for _, m := range all {
			if eng.Connected(n, m) {
				conn = append(conn, m)
			}
		}
		fmt.Fprintf(out, "%s: addr %q %v region %q %v online %v count %d peers [%s] each [%s] connected [%s]\n",
			short[n], addr, okA, region, okR, eng.IsOnline(n), eng.PeerCount(n),
			names(eng.Peers(n)), names(each), names(conn))
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestShardedConnectFromEventCode issues Connect, Send and Disconnect from
// event code running on all four shards at once against one capacity-capped
// hub. Which dialers win is a race; the counts are not: the hub fills to
// exactly its capacity, every edge is symmetric, and the handlers hear of
// each change exactly once. Run under -race it checks the table's locking.
func TestShardedConnectFromEventCode(t *testing.T) {
	const n, capacity = 64, 40
	s := simnet.NewSharded(t0, 3, simnet.ShardedConfig{Shards: 4, Latency: simnet.Fixed(5 * time.Millisecond)})
	ids, hs := addNodes(t, s, n)
	hubID := simnet.DeriveNodeID([]byte("hub"))
	hub := &recHandler{}
	if err := s.AddNode(hubID, "hub:4001", simnet.RegionUS, capacity, hub); err != nil {
		t.Fatal(err)
	}
	shardsUsed := map[int]bool{}
	for _, id := range ids {
		shardsUsed[s.ShardOf(id)] = true
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("dialers placed on %d shard(s), want several", len(shardsUsed))
	}
	var accepted, sent atomic.Int64
	won := make([]atomic.Bool, n)
	for i, id := range ids {
		s.AfterOn(id, time.Millisecond, func() {
			if s.Connect(id, hubID) != nil {
				return
			}
			accepted.Add(1)
			won[i].Store(true)
			if s.Send(id, hubID, "hello") == nil {
				sent.Add(1)
			}
		})
		if i%2 == 0 {
			s.AfterOn(id, time.Second, func() { s.Disconnect(id, hubID) })
		}
	}
	s.Run(500 * time.Millisecond)
	if got := accepted.Load(); got != capacity {
		t.Fatalf("hub accepted %d dialers, want its capacity %d", got, capacity)
	}
	if got := s.PeerCount(hubID); got != capacity {
		t.Fatalf("hub PeerCount %d, want %d", got, capacity)
	}
	for i, id := range ids {
		if s.Connected(id, hubID) != won[i].Load() || s.Connected(hubID, id) != won[i].Load() {
			t.Fatalf("dialer %d: edge not symmetric with its Connect result", i)
		}
	}
	s.Run(time.Second)
	var left int64
	for i := range ids {
		if won[i].Load() && i%2 != 0 {
			left++
		}
	}
	if got := int64(s.PeerCount(hubID)); got != left {
		t.Fatalf("hub keeps %d peers after the disconnects, want %d", got, left)
	}
	if hub.conns.Load() != capacity || hub.disc.Load() != capacity-left {
		t.Fatalf("hub heard %d connects and %d disconnects, want %d and %d", hub.conns.Load(), hub.disc.Load(), capacity, capacity-left)
	}
	var dialerConns, dialerDisc int64
	for _, h := range hs {
		dialerConns += h.conns.Load()
		dialerDisc += h.disc.Load()
	}
	if dialerConns != capacity || dialerDisc != capacity-left {
		t.Fatalf("dialers heard %d connects and %d disconnects, want %d and %d", dialerConns, dialerDisc, capacity, capacity-left)
	}
	if delivered, dropped := s.Stats(); int64(delivered+dropped) != sent.Load() || hub.msgs.Load() != int64(delivered) {
		t.Fatalf("stats delivered %d + dropped %d, hub got %d, of %d sent", delivered, dropped, hub.msgs.Load(), sent.Load())
	}
}
