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
// are merged through ingest.StreamUnifier, and the driver pumps one event at
// a time. Replay always runs on the serial engine: every replayed message
// goes to a monitor, and monitors run on the control shard, so more shards
// would only add barriers.
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

// World is a built replay scenario: an engine, the monitors, and a pool of
// replay requester nodes ready to re-issue recorded traffic.
type World struct {
	Net      engine.Engine
	Monitors []*monitor.Monitor

	cfg     Spec
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

// Build constructs the replay world: a serial engine, the monitors, and the
// requester pool, every pool node connected to every monitor (monitors
// accept all connections, as in the paper) with the broadcast subset drawn
// per MonitorFrac. The spec must name its monitors; Prepare discovers them
// from the inputs first.
func Build(cfg Spec) (*World, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Monitors) == 0 {
		return nil, fmt.Errorf("replay: no monitors configured")
	}
	net := simnet.New(cfg.Start, cfg.Seed, nil)
	w := &World{
		Net:    net,
		cfg:    cfg,
		byName: make(map[string]*monitor.Monitor, len(cfg.Monitors)),
		assign: make(map[simnet.NodeID]int),
	}
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

// PoolSize returns the replay node pool size.
func (w *World) PoolSize() int { return len(w.nodes) }

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

// Drive replays src into the world as a serial pump: it advances the engine
// to each event's warped time with RunUntil and sends inline, so the event
// heap only ever holds in-flight deliveries and resident memory is one
// event, not the trace. Drive returns when the source is exhausted and
// in-flight messages have drained. It must be called from the driver
// goroutine (not from event code), and a World should be driven once.
func (w *World) Drive(src EventSource) (*DriveStats, error) {
	warp := w.cfg.TimeWarp
	base := w.Net.Now()
	stats := &DriveStats{}
	var lastName string
	var lastTarget simnet.NodeRef
	// Pool-node senders resolve to refs once; per-event sends then skip the
	// node-table lookups inside the network.
	refs := make([]simnet.NodeRef, len(w.nodes))
	for i, nid := range w.nodes {
		refs[i], _ = w.Net.Ref(nid)
	}
	// Sent-buffer FIFO: send times are nondecreasing and the delay bound is
	// constant, so the head always holds the earliest readyAt.
	maxDelay := w.Net.Latency().Max()
	var bufs []*msgBuf
	head := 0
	// send carries tc: a sampled context records the hop span, a zero one
	// sends untraced.
	send := func(tc otrace.Ctx, from, to simnet.NodeRef, t wire.EntryType, c cid.CID) {
		now := w.Net.Now()
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
		_ = w.Net.SendRef(tc, hopName(t), from, to, &buf.m)
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
		if at.After(w.Net.Now()) {
			w.Net.RunUntil(at)
		}
		idx := w.nodeFor(ev.Requester)
		stats.Events++
		tc := w.mintRoot(ev.Requester, w.nodes[idx], w.Net.Now())
		if ev.Monitor != "" {
			if ev.Monitor != lastName {
				m, ok := w.byName[ev.Monitor]
				if !ok {
					return stats, fmt.Errorf("replay: event references unknown monitor %q (world has %d monitors; use DiscoverMonitors)", ev.Monitor, len(w.byName))
				}
				ref, ok := w.Net.Ref(m.ID())
				if !ok {
					return stats, fmt.Errorf("replay: monitor %q not registered in network", ev.Monitor)
				}
				lastName, lastTarget = ev.Monitor, ref
			}
			send(tc, refs[idx], lastTarget, ev.Type, ev.CID)
		} else {
			for _, target := range w.monSets[idx] {
				ref, ok := w.Net.Ref(target)
				if !ok {
					continue
				}
				send(tc, refs[idx], ref, ev.Type, ev.CID)
			}
		}
	}
	w.Net.Run(graceFor)
	stats.Requesters = len(w.assign)
	stats.VirtualDuration = w.Net.Now().Sub(base)
	return stats, nil
}

// mintRoot advances the deterministic event sequence and, when the network
// has a span recorder that samples the event's trace ID (from the seed, the
// observed requester and the sequence), records a zero-duration request root
// span at now, returning its context (zero when untraced or unsampled). Each
// monitor send of the event then becomes a hop span under it.
func (w *World) mintRoot(requester, node simnet.NodeID, now time.Time) otrace.Ctx {
	w.seq++
	tr := w.Net.Tracer()
	if tr == nil {
		return otrace.Ctx{}
	}
	trace := otrace.TraceID(w.cfg.Seed, requester[:], w.seq)
	if !tr.ShouldSample(trace) {
		return otrace.Ctx{}
	}
	root := tr.Root(trace, "request", node.String(), now)
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
