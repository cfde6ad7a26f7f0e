// Package replay turns recorded monitoring traces back into simulation
// workloads, closing the paper's monitor → trace → simulate loop: every
// conclusion in the paper is derived from captured Bitswap request traces,
// and this package lets those same traces (or the simulator's own output)
// drive a simulated network instead of hand-tuned synthetic flags.
//
// Two modes exist:
//
//   - Direct replay re-issues each observed want-list entry at its recorded
//     offset (optionally time-warped), from a deterministic remapping of the
//     observed requesters onto a pool of simulated replay nodes, targeted at
//     the monitor that recorded it. A direct replay of a recorded run
//     reproduces each monitor's request counts and CID multiset exactly,
//     which is the package's self-validation path.
//   - Fitted replay first fits empirical models to the trace — per-CID
//     popularity (internal/popularity), request interarrival rate, requester
//     activity distribution, diurnal shape, WANT_BLOCK share — and then
//     generates a statistically matched workload amplified to an arbitrary
//     population size (see Fit and NewFittedSource).
//
// Input traces stream with bounded memory: segment stores and trace files
// are merged through ingest.StreamUnifier, and the driver schedules only one
// lookahead horizon of events at a time. Events are posted to the owning
// node's shard via engine.Timers.AfterOn, so replay runs unmodified at any
// shard count.
package replay

import (
	"fmt"
	"io"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/geoip"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

// MonitorSpec names one monitoring vantage point of the replay world.
type MonitorSpec struct {
	Name   string
	Region simnet.Region
}

// Config parametrises a replay world.
type Config struct {
	// Seed drives monitor connectivity draws and node placement.
	Seed int64
	// Start is the replay world's virtual start time (default: the workload
	// package's epoch, 2021-04-30).
	Start time.Time
	// Monitors declares the world's vantage points. Direct replay requires
	// every monitor named by the trace to be present (DiscoverMonitors
	// derives the list from the inputs).
	Monitors []MonitorSpec
	// Nodes is the replay requester pool size (default 256). Observed
	// requesters map onto the pool in first-seen round-robin order; with at
	// least as many pool nodes as distinct requesters the mapping is
	// injective, otherwise requesters share nodes (counts per monitor are
	// unaffected; only per-requester attribution coarsens).
	Nodes int
	// TimeWarp divides recorded offsets: 2 replays a trace in half its
	// recorded duration, 0.5 stretches it to twice. Default 1.
	TimeWarp float64
	// Horizon bounds how far ahead of the virtual clock the driver
	// schedules events (default 1 minute of warped virtual time); resident
	// memory is one horizon's worth of events, not the trace.
	Horizon time.Duration
	// MonitorFrac is the probability that a replay node connects to each
	// monitor, drawn independently per (node, monitor) pair. It only
	// affects broadcast events (fitted replay); direct replay targets the
	// recording monitor explicitly. Zero means unset and selects full
	// coverage (1); use a small positive value for near-zero coverage.
	MonitorFrac float64
	// NewEngine constructs the simulation engine; nil selects the serial
	// deterministic simnet reference. Parallel replays pass e.g.
	// engine.ShardedFactory(4).
	NewEngine func(start time.Time, seed int64) engine.Engine
	// Tracer, when set, records sampled request traces: each replayed event
	// mints a deterministic trace ID (from Seed, the observed requester and
	// the event sequence) and, when sampled, becomes a zero-duration request
	// root span with one hop span per monitor send.
	Tracer *otrace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
	}
	if c.Nodes <= 0 {
		c.Nodes = 256
	}
	if c.TimeWarp <= 0 {
		c.TimeWarp = 1
	}
	if c.Horizon <= 0 {
		c.Horizon = time.Minute
	}
	if c.MonitorFrac <= 0 {
		c.MonitorFrac = 1
	}
	return c
}

// World is a built replay scenario: an engine, the monitors, and a pool of
// replay requester nodes ready to re-issue recorded traffic.
type World struct {
	Net      engine.Engine
	Monitors []*monitor.Monitor

	cfg     Config
	byName  map[string]*monitor.Monitor
	nodes   []simnet.NodeID
	monSets [][]simnet.NodeID // broadcast targets per pool node
	assign  map[simnet.NodeID]int
	next    int

	// seq numbers replayed events for trace IDs.
	seq uint64
}

// replayNode is the pool node's handler: a pure traffic source. Replies
// (the monitors' DONT_HAVE presences) are ignored.
type replayNode struct{}

func (replayNode) HandleMessage(simnet.NodeID, any) {}
func (replayNode) PeerConnected(simnet.NodeID)      {}
func (replayNode) PeerDisconnected(simnet.NodeID)   {}

// Build constructs the replay world: engine, monitors (pinned to the
// control shard as always), and the requester pool, every pool node
// connected to every monitor (monitors accept all connections, as in the
// paper) with the broadcast subset drawn per MonitorFrac.
func Build(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Monitors) == 0 {
		return nil, fmt.Errorf("replay: no monitors configured")
	}
	var net engine.Engine
	if cfg.NewEngine != nil {
		net = cfg.NewEngine(cfg.Start, cfg.Seed)
	} else {
		net = simnet.New(cfg.Start, cfg.Seed, nil)
	}
	w := &World{
		Net:    net,
		cfg:    cfg,
		byName: make(map[string]*monitor.Monitor, len(cfg.Monitors)),
		assign: make(map[simnet.NodeID]int),
	}
	net.SetTracer(cfg.Tracer)
	geo := geoip.New()
	rng := net.NewRand("replay")
	for _, spec := range cfg.Monitors {
		if _, dup := w.byName[spec.Name]; dup {
			return nil, fmt.Errorf("replay: duplicate monitor %q", spec.Name)
		}
		region := spec.Region
		if region == "" {
			region = simnet.RegionOther
		}
		addr, err := geo.Allocate(region)
		if err != nil {
			return nil, fmt.Errorf("replay: monitor %s: %w", spec.Name, err)
		}
		m, err := monitor.New(net, spec.Name, addr, region)
		if err != nil {
			return nil, err
		}
		m.Start(nil)
		w.Monitors = append(w.Monitors, m)
		w.byName[spec.Name] = m
	}
	regions := []simnet.Region{
		simnet.RegionUS, simnet.RegionNL, simnet.RegionDE,
		simnet.RegionCA, simnet.RegionFR, simnet.RegionOther,
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := simnet.DeriveNodeID([]byte(fmt.Sprintf("replay-node-%d", i)))
		region := regions[rng.Intn(len(regions))]
		addr, err := geo.Allocate(region)
		if err != nil {
			return nil, fmt.Errorf("replay: node %d: %w", i, err)
		}
		if err := net.AddNode(id, addr, region, 0, replayNode{}); err != nil {
			return nil, fmt.Errorf("replay: node %d: %w", i, err)
		}
		var set []simnet.NodeID
		for _, m := range w.Monitors {
			if err := net.Connect(id, m.ID()); err != nil {
				return nil, fmt.Errorf("replay: connect node %d to %s: %w", i, m.Name, err)
			}
			if cfg.MonitorFrac >= 1 || rng.Float64() < cfg.MonitorFrac {
				set = append(set, m.ID())
			}
		}
		w.nodes = append(w.nodes, id)
		w.monSets = append(w.monSets, set)
	}
	return w, nil
}

// MonitorByName finds a monitor.
func (w *World) MonitorByName(name string) *monitor.Monitor { return w.byName[name] }

// PoolSize returns the replay node pool size.
func (w *World) PoolSize() int { return len(w.nodes) }

// Tracer returns the replay's span recorder, nil when tracing is off.
func (w *World) Tracer() *otrace.Tracer { return w.cfg.Tracer }

// MappedRequesters returns how many distinct observed requesters have been
// mapped onto the pool so far.
func (w *World) MappedRequesters() int { return len(w.assign) }

// nodeFor maps an observed requester onto a pool node, first-seen
// round-robin: deterministic for a given event stream, and injective while
// distinct requesters fit the pool.
func (w *World) nodeFor(requester simnet.NodeID) int {
	idx, ok := w.assign[requester]
	if !ok {
		idx = w.next % len(w.nodes)
		w.assign[requester] = idx
		w.next++
	}
	return idx
}

// DriveStats summarises one Drive call.
type DriveStats struct {
	// Events is the number of replayed events (one want-list entry each).
	Events int
	// Sends is the number of want messages sent (broadcast events send one
	// per connected monitor).
	Sends int
	// Requesters is the number of distinct observed requesters mapped.
	Requesters int
	// VirtualDuration is how far the virtual clock advanced.
	VirtualDuration time.Duration
}

// graceFor lets in-flight messages (bounded by the latency model, ~300 ms)
// drain after the last event before Drive returns.
const graceFor = 5 * time.Second

// Drive replays src into the world: each event's offset is warped, the
// event is scheduled on its pool node's owner shard, and the engine is
// advanced one horizon at a time so resident state stays bounded. Drive
// returns when the source is exhausted and in-flight messages have drained.
// It must be called from the driver goroutine (not from event code), and a
// World should be driven once.
func (w *World) Drive(src EventSource) (*DriveStats, error) {
	if sn, ok := w.Net.(*simnet.Network); ok && sn.Shards() == 1 {
		return w.drivePump(sn, src)
	}
	warp := w.cfg.TimeWarp
	base := w.Net.Now()
	stats := &DriveStats{}
	var pending *Event
	eof := false
	for !eof {
		windowEnd := w.Net.Now().Add(w.cfg.Horizon)
		for {
			if pending == nil {
				ev, err := src.Next()
				if err == io.EOF {
					eof = true
					break
				}
				if err != nil {
					return stats, fmt.Errorf("replay: read event: %w", err)
				}
				pending = &ev
			}
			at := base.Add(time.Duration(float64(pending.Offset) / warp))
			if at.After(windowEnd) {
				break
			}
			if err := w.schedule(*pending, at, stats); err != nil {
				return stats, err
			}
			pending = nil
		}
		w.Net.RunUntil(windowEnd)
	}
	w.Net.Run(graceFor)
	stats.Requesters = len(w.assign)
	stats.VirtualDuration = w.Net.Now().Sub(base)
	return stats, nil
}

// msgBuf packs a want message and its single-entry want list into one
// allocation. The engine holds the message until its latency elapses, and
// handlers read it synchronously at delivery without retaining it, so a
// buffer becomes reusable once the virtual clock passes readyAt — its send
// time plus the latency model's maximum delay. The pump recycles buffers on
// that bound, making sends allocation-free at steady state.
type msgBuf struct {
	m       wire.Message
	e       [1]wire.Entry
	readyAt time.Time
}

// drivePump is the one-shard fast path of Drive: instead of wrapping every
// event in an AfterOn timer closure (a heap insert into a queue that grows
// to a whole horizon of pending timers, plus three allocations per event),
// it advances the engine to each event's warped time with RunUntil and
// sends inline. One shard's RunUntil is exact and cheap, the
// event heap only ever holds in-flight deliveries, and resident
// memory is one event, not one horizon. Send times are identical to the
// timer path, so the monitor-side trace is equivalent entry-for-entry.
func (w *World) drivePump(sn *simnet.Network, src EventSource) (*DriveStats, error) {
	warp := w.cfg.TimeWarp
	base := sn.Now()
	stats := &DriveStats{}
	var lastName string
	var lastTarget simnet.NodeRef
	var lastID simnet.NodeID
	// Pool-node senders resolve to refs once; per-event sends then skip the
	// node-table lookups inside the network.
	refs := make([]simnet.NodeRef, len(w.nodes))
	for i, nid := range w.nodes {
		refs[i], _ = sn.Ref(nid)
	}
	// Sent-buffer FIFO: send times are nondecreasing and the delay bound is
	// constant, so the head always holds the earliest readyAt.
	maxDelay := sn.Latency().Max()
	var bufs []*msgBuf
	head := 0
	send := func(from, to simnet.NodeRef, t wire.EntryType, c cid.CID) {
		now := sn.Now()
		var buf *msgBuf
		if head < len(bufs) && !bufs[head].readyAt.After(now) {
			buf = bufs[head]
			bufs[head] = nil
			head++
			if head == len(bufs) {
				bufs, head = bufs[:0], 0
			} else if head >= 256 && head*2 >= len(bufs) {
				n := copy(bufs, bufs[head:])
				bufs, head = bufs[:n], 0
			}
		} else {
			buf = &msgBuf{}
		}
		buf.e[0] = wire.Entry{Type: t, CID: c}
		buf.m.Wantlist = buf.e[:]
		buf.readyAt = now.Add(maxDelay)
		_ = sn.SendRef(from, to, &buf.m)
		bufs = append(bufs, buf)
		stats.Sends++
	}
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, fmt.Errorf("replay: read event: %w", err)
		}
		at := base.Add(time.Duration(float64(ev.Offset) / warp))
		if at.After(sn.Now()) {
			sn.RunUntil(at)
		}
		idx := w.nodeFor(ev.Requester)
		stats.Events++
		tc := w.mintRoot(ev.Requester, w.nodes[idx], sn.Now())
		if ev.Monitor != "" {
			if ev.Monitor != lastName {
				m, ok := w.byName[ev.Monitor]
				if !ok {
					return stats, fmt.Errorf("replay: event references unknown monitor %q (world has %d monitors; use DiscoverMonitors)", ev.Monitor, len(w.byName))
				}
				ref, ok := sn.Ref(m.ID())
				if !ok {
					return stats, fmt.Errorf("replay: monitor %q not registered in network", ev.Monitor)
				}
				lastName, lastTarget, lastID = ev.Monitor, ref, m.ID()
			}
			if tc.Sampled() {
				msg := &wire.Message{Wantlist: []wire.Entry{{Type: ev.Type, CID: ev.CID}}}
				_ = sn.SendTraced(tc, hopName(ev.Type), w.nodes[idx], lastID, msg)
				stats.Sends++
			} else {
				send(refs[idx], lastTarget, ev.Type, ev.CID)
			}
		} else {
			for _, target := range w.monSets[idx] {
				if tc.Sampled() {
					msg := &wire.Message{Wantlist: []wire.Entry{{Type: ev.Type, CID: ev.CID}}}
					_ = sn.SendTraced(tc, hopName(ev.Type), w.nodes[idx], target, msg)
					stats.Sends++
					continue
				}
				ref, ok := sn.Ref(target)
				if !ok {
					continue
				}
				send(refs[idx], ref, ev.Type, ev.CID)
			}
		}
	}
	sn.Run(graceFor)
	stats.Requesters = len(w.assign)
	stats.VirtualDuration = sn.Now().Sub(base)
	return stats, nil
}

// mintRoot advances the deterministic event sequence and, for sampled
// events, records a zero-duration request root span at now, returning its
// context (zero when untraced or unsampled).
func (w *World) mintRoot(requester, node simnet.NodeID, now time.Time) otrace.Ctx {
	w.seq++
	if w.cfg.Tracer == nil {
		return otrace.Ctx{}
	}
	trace := otrace.TraceID(w.cfg.Seed, requester[:], w.seq)
	if !w.cfg.Tracer.ShouldSample(trace) {
		return otrace.Ctx{}
	}
	root := w.cfg.Tracer.Root(trace, "request", node.String(), now)
	tc := root.Ctx()
	root.End(now)
	return tc
}

// hopName maps a replayed entry type to its hop span name.
func hopName(t wire.EntryType) string {
	switch t {
	case wire.WantBlock:
		return "send.want_block"
	case wire.Cancel:
		return "send.cancel"
	default:
		return "send.want_have"
	}
}

// schedule arms one event on its pool node's owner shard.
func (w *World) schedule(ev Event, at time.Time, stats *DriveStats) error {
	idx := w.nodeFor(ev.Requester)
	id := w.nodes[idx]
	var targets []simnet.NodeID
	if ev.Monitor != "" {
		m, ok := w.byName[ev.Monitor]
		if !ok {
			return fmt.Errorf("replay: event references unknown monitor %q (world has %d monitors; use DiscoverMonitors)", ev.Monitor, len(w.byName))
		}
		targets = []simnet.NodeID{m.ID()}
	} else {
		targets = w.monSets[idx]
	}
	stats.Events++
	stats.Sends += len(targets)
	// The trace ID is derived here, in deterministic source order; the root
	// span itself is minted inside the event, at the node's exact event time.
	var trace uint64
	w.seq++
	if w.cfg.Tracer != nil {
		if t := otrace.TraceID(w.cfg.Seed, ev.Requester[:], w.seq); w.cfg.Tracer.ShouldSample(t) {
			trace = t
		}
	}
	delay := at.Sub(w.Net.Now())
	if delay < 0 {
		delay = 0
	}
	typ, c := ev.Type, ev.CID
	net := w.Net
	w.Net.AfterOn(id, delay, func() {
		var tc otrace.Ctx
		if trace != 0 {
			now := net.EventTime(id)
			root := w.cfg.Tracer.Root(trace, "request", id.String(), now)
			tc = root.Ctx()
			root.End(now)
		}
		for _, target := range targets {
			// One message per target: receivers must never share a message
			// they may retain or mutate.
			msg := &wire.Message{Wantlist: []wire.Entry{{Type: typ, CID: c}}}
			_ = engine.SendCtx(net, tc, hopName(typ), id, target, msg)
		}
	})
	return nil
}

// SetSinks redirects every monitor's observations into sink(monitorName)
// (e.g. per-monitor segment stores). Call before Drive.
func (w *World) SetSinks(sink func(name string) ingest.Sink) {
	for _, m := range w.Monitors {
		m.SetSink(sink(m.Name))
	}
}

// SinkErr returns the first sink error any monitor recorded.
func (w *World) SinkErr() error {
	for _, m := range w.Monitors {
		if err := m.SinkErr(); err != nil {
			return fmt.Errorf("replay: monitor %s sink: %w", m.Name, err)
		}
	}
	return nil
}
