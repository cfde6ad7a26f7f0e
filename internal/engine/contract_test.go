package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitswapmon/internal/obs"
	"bitswapmon/internal/otrace"
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
	names simnet.NodeID
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
	id := func(s string) simnet.NodeID { return simnet.DeriveNodeID([]byte(s)) }
	hub, a, b, c, d, e, f, ghost := id("hub"), id("a"), id("b"), id("c"), id("d"), id("e"), id("f"), id("ghost")
	short := map[simnet.NodeID]string{hub: "hub", a: "a", b: "b", c: "c", d: "d", e: "e", f: "f", ghost: "ghost"}
	all := []simnet.NodeID{hub, a, b, c, d, e, f, ghost}
	handlers := map[simnet.NodeID]*recHandler{}
	add := func(n simnet.NodeID, region simnet.Region, maxConns int) func(Engine) error {
		return func(eng Engine) error {
			if handlers[n] == nil {
				handlers[n] = &recHandler{}
			}
			return eng.AddNode(n, short[n]+":4001", region, maxConns, handlers[n])
		}
	}
	connect := func(x, y simnet.NodeID) func(Engine) error {
		return func(eng Engine) error { return eng.Connect(x, y) }
	}
	// The ref-taking cores must apply the same rules as the ID wrappers.
	connectRef := func(x, y simnet.NodeID) func(Engine) error {
		return func(eng Engine) error {
			rx, _ := eng.Ref(x)
			ry, _ := eng.Ref(y)
			return eng.ConnectRef(rx, ry)
		}
	}
	send := func(x, y simnet.NodeID, msg string) func(Engine) error {
		return func(eng Engine) error { return eng.Send(x, y, msg) }
	}
	sendRef := func(x, y simnet.NodeID, msg string) func(Engine) error {
		return func(eng Engine) error {
			rx, _ := eng.Ref(x)
			ry, _ := eng.Ref(y)
			return eng.SendRef(otrace.Ctx{}, "", rx, ry, msg)
		}
	}
	disconnect := func(x, y simnet.NodeID) func(Engine) error {
		return func(eng Engine) error { eng.Disconnect(x, y); return nil }
	}
	setOnline := func(x simnet.NodeID, on bool) func(Engine) error {
		return func(eng Engine) error { return eng.SetOnline(x, on) }
	}
	run := func(eng Engine) error { eng.Run(time.Second); return nil }

	var none simnet.NodeID
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
		{"self-dial by ref", connectRef(a, a), simnet.ErrSelfDial, none},
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
		{"a-hub again by ref", connectRef(a, hub), nil, none},
		{"hub-a reversed", connect(hub, a), nil, none},
		{"e-c", connect(e, c), nil, none},
		{"target full", connect(c, hub), simnet.ErrAtCapacity, hub},
		{"dialer full", connect(hub, c), simnet.ErrAtCapacity, hub},
		{"both full, target named", connect(e, hub), simnet.ErrAtCapacity, hub},
		{"both full, reversed", connect(hub, e), simnet.ErrAtCapacity, e},
		{"dialer full only", connect(e, a), simnet.ErrAtCapacity, e},
		{"send unconnected", send(a, b, "x"), simnet.ErrNotConnected, none},
		{"send unconnected by ref", sendRef(a, b, "x"), simnet.ErrNotConnected, none},
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
func tableState(out *strings.Builder, eng Engine, all []simnet.NodeID, short map[simnet.NodeID]string) {
	names := func(ids []simnet.NodeID) string {
		s := make([]string, len(ids))
		for i, id := range ids {
			s[i] = short[id]
		}
		return strings.Join(s, ",")
	}
	for _, n := range all {
		addr, okA := eng.Addr(n)
		r, okR := eng.Ref(n)
		var conn []simnet.NodeID
		for _, m := range all {
			if rm, ok := eng.Ref(m); okR && ok && eng.ConnectedRef(r, rm) {
				conn = append(conn, m)
			}
		}
		fmt.Fprintf(out, "%s: addr %q %v ref %d %v online %v count %d peers [%s] connected [%s]\n",
			short[n], addr, okA, r, okR, eng.IsOnline(n), eng.PeerCount(n),
			names(eng.Peers(n)), names(conn))
	}
}

// TestSendEachRefMatchesSendRef: a hub's broadcast through SendEachRef and
// the same hub sending to each of its Peers by SendRef, from one seed, give
// the same deliveries (time, from, to), the same drops when a peer
// disconnects with the broadcast in flight, and the same hop spans apart
// from WallNs. SendEachRef's callback hears the peers in Peers order.
func TestSendEachRefMatchesSendRef(t *testing.T) {
	engines := []struct {
		name string
		new  func() Engine
	}{
		{"serial", func() Engine { return simnet.New(t0, 7, nil) }},
		{"sharded-2", func() Engine { return simnet.NewSharded(t0, 7, simnet.ShardedConfig{Shards: 2}) }},
	}
	for _, ce := range engines {
		loop := broadcastTranscript(t, ce.new(), false)
		each := broadcastTranscript(t, ce.new(), true)
		if each != loop {
			t.Errorf("%s: SendEachRef diverges from a SendRef loop:\n%s", ce.name, firstDiff(loop, each))
		}
	}
}

// logHandler logs each delivery with its exact time; deliveries on several
// shards share one log under mu.
type logHandler struct {
	eng Engine
	id  simnet.NodeID
	mu  *sync.Mutex
	log *[]string
}

func (h *logHandler) HandleMessage(from simnet.NodeID, msg any) {
	at := h.eng.EventTime(h.id).UnixNano()
	h.mu.Lock()
	*h.log = append(*h.log, fmt.Sprintf("%d %s -> %s: %v", at, from, h.id, msg))
	h.mu.Unlock()
}
func (h *logHandler) PeerConnected(simnet.NodeID)    {}
func (h *logHandler) PeerDisconnected(simnet.NodeID) {}

// broadcastTranscript has a hub broadcast two traced rounds to 24 peers in
// six regions, by SendEachRef or by a SendRef loop over Peers, disconnecting
// one peer while the second round is in flight. It renders what the callback
// heard, every delivery (sorted, since several shards log concurrently), the
// stats and every hop span.
func broadcastTranscript(t *testing.T, eng Engine, each bool) string {
	tr := otrace.New(otrace.Config{Seed: 7})
	eng.SetTracer(tr)
	var mu sync.Mutex
	var log []string
	add := func(name string, region simnet.Region) simnet.NodeID {
		id := simnet.DeriveNodeID([]byte(name))
		if err := eng.AddNode(id, name+":4001", region, 0, &logHandler{eng, id, &mu, &log}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	hubID := add("hub", simnet.RegionUS)
	hub, _ := eng.Ref(hubID)
	regions := []simnet.Region{simnet.RegionUS, simnet.RegionDE, simnet.RegionNL, simnet.RegionCA, simnet.RegionFR, simnet.RegionOther}
	var peers []simnet.NodeID
	for i := range 24 {
		p := add(fmt.Sprintf("peer-%d", i), regions[i%len(regions)])
		if err := eng.Connect(hubID, p); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	var out strings.Builder
	for round := 1; round <= 2; round++ {
		tc := tr.Root(uint64(round), "round", "hub", eng.Now()).Ctx()
		msg := fmt.Sprintf("round %d", round)
		var sent []simnet.NodeID
		if each {
			eng.SendEachRef(tc, "send.round", hub, msg, func(p simnet.NodeRef) { sent = append(sent, eng.ID(p)) })
		} else {
			for _, p := range eng.Peers(hubID) {
				r, _ := eng.Ref(p)
				if err := eng.SendRef(tc, "send.round", hub, r, msg); err != nil {
					t.Fatal(err)
				}
				sent = append(sent, p)
			}
		}
		if !slices.Equal(sent, eng.Peers(hubID)) {
			t.Errorf("round %d: sent to %v, want Peers order %v", round, sent, eng.Peers(hubID))
		}
		fmt.Fprintf(&out, "round %d sent %v\n", round, sent)
		if round == 2 {
			eng.Disconnect(hubID, peers[5])
		}
		eng.Run(time.Second)
	}
	slices.Sort(log)
	out.WriteString(strings.Join(log, "\n"))
	delivered, dropped := eng.Stats()
	if delivered != 47 || dropped != 1 {
		t.Errorf("delivered %d dropped %d, want 47 and 1", delivered, dropped)
	}
	fmt.Fprintf(&out, "\ndelivered %d dropped %d\n", delivered, dropped)
	for _, s := range tr.Spans() {
		s.WallNs = 0
		fmt.Fprintf(&out, "%+v\n", s)
	}
	return out.String()
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
		if slices.Contains(s.Peers(id), hubID) != won[i].Load() || slices.Contains(s.Peers(hubID), id) != won[i].Load() {
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
