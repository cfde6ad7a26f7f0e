// Package otrace is a span-based causal flight recorder for the simulation:
// request tracing in virtual time.
//
// A trace follows one user-level request (a workload Bitswap request, a
// gateway HTTP request, a replayed monitor entry) through every layer it
// touches — gateway cache lookup, DHT lookup rounds, Bitswap want/have/block
// exchanges, and the engine's send+delivery hops. Span start/end times are
// stamped in virtual nanoseconds, so traces are deterministic, engine-
// independent and replayable; each span additionally records the wall-clock
// time that elapsed while it was open (self-time for spans that open and
// close inside one event handler).
//
// # Sampling
//
// Trace IDs are derived deterministically from (seed, requester node, the
// requester's per-node request sequence number) and head-sampled by a seeded
// hash threshold. Because the derivation consumes no engine RNG state and the
// per-node request sequence is engine-independent, the serial and sharded
// engines sample the *same* requests for the same seed.
//
// # Storage
//
// Finished spans land in one mutex-guarded buffer of 65,536 spans —
// bounded memory, with a drop counter on overflow. The disabled path is
// nil-safe: every method works on a nil *Tracer (and a nil *SpanHandle), so
// uninstrumented runs pay one nil check per call site.
package otrace

import (
	"sort"
	"sync"
	"time"
)

// Ctx is a span context: the trace it belongs to plus the current span, the
// value propagated across layers and engine hops. The zero Ctx means "not
// sampled"; every operation on it is a no-op.
type Ctx struct {
	Trace uint64
	Span  uint64
}

// Sampled reports whether the context belongs to a sampled trace.
func (c Ctx) Sampled() bool { return c.Trace != 0 }

// Span is one finished operation within a trace.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name is the stage label ("request", "bitswap.get", "dht.rpc",
	// "send.want_have", ...). See the README's span taxonomy.
	Name string `json:"name"`
	// Node labels the acting node (short hex prefix) or gateway.
	Node string `json:"node,omitempty"`
	// StartNs/EndNs are virtual time, nanoseconds since the Unix epoch.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// WallNs is the wall-clock time elapsed while the span was open. It is
	// engine-dependent and excluded from equivalence comparisons.
	WallNs int64 `json:"wall_ns,omitempty"`
	// QueueNs is virtual time spent queueing beyond the latency model's
	// delay: the sharded engine's cross-shard lookahead flooring. Zero on
	// the serial engine.
	QueueNs int64 `json:"queue_ns,omitempty"`
	// Drop marks a hop whose message was dropped at delivery time, or an
	// RPC that timed out.
	Drop bool `json:"drop,omitempty"`
	// Async marks a span that may legitimately outlive its parent
	// (FollowsFrom semantics): message flights whose delivery lands after the
	// requester resolved, or DHT work a lookup abandoned by finishing early.
	// Nesting checks require full time containment only of non-async spans.
	Async bool `json:"async,omitempty"`
}

// HopRef carries a trace context alongside an in-flight message through an
// engine's event queue: the cross-shard context marshalling record. Engines
// attach one to sampled sends and record the hop span at delivery time.
type HopRef struct {
	Ctx  Ctx
	Name string
	// SendNs is the exact virtual send time (the hop span's start).
	SendNs int64
	// QueueNs is the delivery-delay excess imposed by cross-shard lookahead
	// flooring, if any.
	QueueNs int64
}

// Config parametrises a Tracer.
type Config struct {
	// Sample is the head-sampling rate in [0,1]; 0 selects 1.0 (all).
	Sample float64
	// Seed salts the sampling decision (use the simulation seed so serial
	// and sharded runs of one scenario agree).
	Seed int64
}

// spanCapacity is how many finished spans a Tracer keeps; spans beyond it
// are counted as dropped.
const spanCapacity = 65536

// Tracer collects finished spans. All methods are nil-safe; a nil *Tracer is
// the disabled recorder.
type Tracer struct {
	seed      uint64
	threshold uint64 // sample iff mix(trace^seed) < threshold

	mu    sync.Mutex
	spans []Span
	cap   int
	drops uint64

	// m is the obs-bridge handle resolved at New; nil (metrics never
	// enabled) keeps Record at a single branch.
	m *otraceMetrics
}

// New creates a tracer.
func New(cfg Config) *Tracer { return newTracer(cfg, spanCapacity) }

// newTracer is New with an explicit capacity; tests shrink it.
func newTracer(cfg Config, capacity int) *Tracer {
	if cfg.Sample <= 0 || cfg.Sample > 1 {
		cfg.Sample = 1
	}
	t := &Tracer{
		seed: mix64(uint64(cfg.Seed)),
		cap:  capacity,
		m:    otMetrics.Load(),
	}
	if cfg.Sample >= 1 {
		t.threshold = ^uint64(0)
	} else {
		t.threshold = uint64(cfg.Sample * float64(1<<63) * 2)
	}
	return t
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// TraceID derives the deterministic trace ID for the seq-th request issued
// by the node identified by id (raw ID bytes). The derivation consumes no
// RNG state, so it is identical across engines. The result is never zero.
func TraceID(seed int64, id []byte, seq uint64) uint64 {
	// FNV-1a over the node bytes, folded with seed and sequence.
	h := uint64(14695981039346656037)
	for _, b := range id {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h = mix64(h ^ mix64(uint64(seed)))
	h = mix64(h ^ seq)
	if h == 0 {
		h = 1
	}
	return h
}

// SpanID derives a deterministic child span ID from its position in the
// trace. Using (parent, name, node, key, start) keeps IDs equal across
// engines whenever the virtual timestamps are equal. key disambiguates
// sibling operations opened in the same event — e.g. the per-link Bitswap
// wants a DAG walk issues in one resolve callback all share (parent, name,
// node, start) and are told apart only by their CID.
func SpanID(trace, parent uint64, name, node, key string, startNs int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	// 0xff never occurs in the ASCII field values, so it is an unambiguous
	// field separator: ("ab","c") and ("a","bc") must not collide.
	h ^= 0xff
	h *= 1099511628211
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= 1099511628211
	}
	h ^= 0xff
	h *= 1099511628211
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h = mix64(h ^ trace)
	h = mix64(h ^ parent)
	h = mix64(h ^ uint64(startNs))
	if h == 0 {
		h = 1
	}
	return h
}

// ShouldSample reports the deterministic head-sampling decision for a trace
// ID. Nil-safe: a nil tracer samples nothing.
func (t *Tracer) ShouldSample(trace uint64) bool {
	if t == nil {
		return false
	}
	return mix64(trace^t.seed) < t.threshold
}

// SpanHandle is an open span. A nil handle (unsampled or disabled) is valid:
// Ctx returns the zero context and End is a no-op.
type SpanHandle struct {
	t    *Tracer
	s    Span
	wall time.Time
}

// Root opens a root span for a sampled trace at a virtual start time.
// Returns nil when the tracer is nil or the trace is not sampled.
func (t *Tracer) Root(trace uint64, name, node string, start time.Time) *SpanHandle {
	if t == nil || trace == 0 {
		return nil
	}
	return t.open(trace, 0, name, node, "", start)
}

// Start opens a child span under parent. Returns nil when the tracer is nil
// or the parent context is unsampled.
func (t *Tracer) Start(parent Ctx, name, node string, start time.Time) *SpanHandle {
	if t == nil || !parent.Sampled() {
		return nil
	}
	return t.open(parent.Trace, parent.Span, name, node, "", start)
}

// StartKeyed is Start with an ID-disambiguation key for operations whose
// siblings can share (parent, name, node, start) — the key (a CID, a DHT
// target) keeps their span IDs distinct and stays engine-independent.
func (t *Tracer) StartKeyed(parent Ctx, name, node, key string, start time.Time) *SpanHandle {
	if t == nil || !parent.Sampled() {
		return nil
	}
	return t.open(parent.Trace, parent.Span, name, node, key, start)
}

func (t *Tracer) open(trace, parent uint64, name, node, key string, start time.Time) *SpanHandle {
	startNs := start.UnixNano()
	return &SpanHandle{
		t: t,
		s: Span{
			Trace:   trace,
			ID:      SpanID(trace, parent, name, node, key, startNs),
			Parent:  parent,
			Name:    name,
			Node:    node,
			StartNs: startNs,
		},
		wall: time.Now(),
	}
}

// MarkAsync flags the span as asynchronous with respect to its parent: its
// completion is not awaited, so it may end after the parent does. Returns the
// handle for chaining; nil-safe.
func (h *SpanHandle) MarkAsync() *SpanHandle {
	if h != nil {
		h.s.Async = true
	}
	return h
}

// Ctx returns the context for propagating children of this span.
func (h *SpanHandle) Ctx() Ctx {
	if h == nil {
		return Ctx{}
	}
	return Ctx{Trace: h.s.Trace, Span: h.s.ID}
}

// End closes the span at a virtual end time and records it. Nil-safe; calling
// End more than once records duplicate spans, so don't.
func (h *SpanHandle) End(end time.Time) {
	if h == nil {
		return
	}
	h.s.EndNs = end.UnixNano()
	if h.s.EndNs < h.s.StartNs {
		h.s.EndNs = h.s.StartNs
	}
	h.s.WallNs = time.Since(h.wall).Nanoseconds()
	h.t.Record(h.s)
}

// EndDropped closes the span like End and marks it dropped (message lost in
// flight, RPC timed out).
func (h *SpanHandle) EndDropped(end time.Time) {
	if h == nil {
		return
	}
	h.s.Drop = true
	h.End(end)
}

// Record stores one finished span. Over capacity the newest span is dropped
// and counted. Nil-safe.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	recorded := len(t.spans) < t.cap
	if recorded {
		t.spans = append(t.spans, s)
	} else {
		t.drops++
	}
	t.mu.Unlock()
	if t.m != nil {
		if recorded {
			t.m.spans.Inc()
		} else {
			t.m.drops.Inc()
		}
	}
}

// RecordHop records a finished engine delivery hop: the span from SendNs to
// the delivery (or drop) time. Nil-safe.
func (t *Tracer) RecordHop(ref *HopRef, node string, endNs int64, dropped bool) {
	if t == nil || ref == nil {
		return
	}
	if endNs < ref.SendNs {
		endNs = ref.SendNs
	}
	t.Record(Span{
		Trace:   ref.Ctx.Trace,
		ID:      SpanID(ref.Ctx.Trace, ref.Ctx.Span, ref.Name, node, "", ref.SendNs),
		Parent:  ref.Ctx.Span,
		Name:    ref.Name,
		Node:    node,
		StartNs: ref.SendNs,
		EndNs:   endNs,
		QueueNs: ref.QueueNs,
		Drop:    dropped,
		Async:   true,
	})
}

// Spans returns a snapshot of every recorded span, sorted by
// (trace, start, id) — a deterministic order independent of recording
// interleaving.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.StartNs != b.StartNs {
			return a.StartNs < b.StartNs
		}
		return a.ID < b.ID
	})
	return out
}

// Dropped reports how many spans were discarded because the buffer was
// full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// Reset discards all recorded spans and the drop count.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans, t.drops = t.spans[:0], 0
	t.mu.Unlock()
}
