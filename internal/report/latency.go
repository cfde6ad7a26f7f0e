package report

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"bitswapmon/internal/otrace"
	"bitswapmon/internal/trace"
)

// ErrNoTracer is returned by the latency_breakdown constructor when no span
// recorder was provided: the report is span-driven, not entry-driven, so
// without a tracer it would finalize an empty (and silently wrong) table.
// Only traced simulation and replay contexts can supply one.
var ErrNoTracer = errors.New("report: latency_breakdown needs a span recorder (Options.Tracer is nil) — enable request tracing to use it")

func newLatencyReport(o Options) (Report, error) {
	if o.Tracer == nil {
		return nil, ErrNoTracer
	}
	return &latencyReport{tr: o.Tracer}, nil
}

// latencyReport derives per-stage latency distributions from the flight
// recorder's spans. It ignores the entry stream entirely: the breakdown is
// span-driven, so Observe is a no-op and all the work happens at Finalize,
// after the run has filled the span buffer. Its only state is the tracer,
// which every instance of a pass shares, so Merge has nothing to fold.
type latencyReport struct {
	tr *otrace.Tracer
	// spans and drops are the tracer's contents as freeze took them, once
	// frozen: a closing window takes them on the writer's goroutine, and
	// its Finalize, which runs beside the writer, reads them.
	spans  []otrace.Span
	drops  uint64
	frozen bool
}

func (r *latencyReport) WantsDedup() bool          { return false }
func (r *latencyReport) Observe(trace.Entry) error { return nil }
func (r *latencyReport) Merge(from Report) error {
	_, err := mergeable[*latencyReport](r, from)
	return err
}
func (r *latencyReport) freeze() { r.spans, r.drops, r.frozen = r.tr.Spans(), r.tr.Dropped(), true }
func (r *latencyReport) Finalize() (Result, error) {
	if !r.frozen {
		r.freeze()
	}
	return BreakdownFromSpans(r.spans, r.drops), nil
}

// stageOrder fixes the render order: the request spine first, then routing,
// then the network hops. Unknown span names sort after these, alphabetically.
var stageOrder = map[string]int{
	"request":           0,
	"gateway.request":   1,
	"gateway.cache_hit": 2, "gateway.cache_miss": 3,
	"gateway.fetch": 4,
	"bitswap.get":   5, "bitswap.local_hit": 6,
	"dht.lookup": 7, "dht.rpc": 8,
	"send.want_have": 9, "send.want_block": 10, "send.block": 11,
	"send.resp": 12, "send.cancel": 13,
	"dht.req": 14, "dht.resp": 15,
	StageQueueWait: 16,
}

// StageQueueWait is the synthetic stage aggregating cross-shard queue delay
// (HopRef.QueueNs): virtual time a message spent floored to the conservative
// lookahead horizon rather than in flight.
const StageQueueWait = "net.queue_wait"

// LatencyStage is one row of the breakdown: the distribution of virtual-time
// durations for every completed span of one name.
type LatencyStage struct {
	Stage string
	// Count is completed (non-dropped) spans; Drops counts spans that ended
	// by timeout, cancel or abandon — excluded from the distribution, which
	// would otherwise measure timeout configuration rather than latency.
	Count int
	Drops int
	// Durations in virtual nanoseconds.
	MeanNs int64
	P50Ns  int64
	P90Ns  int64
	P99Ns  int64
	MaxNs  int64
}

// LatencyBreakdown is the span-driven latency panel: where a request's
// virtual time went, stage by stage — cache-hit short-circuits vs DHT lookup
// time vs Bitswap rounds vs cross-shard queue wait.
type LatencyBreakdown struct {
	Spans     int
	Traces    int
	RingDrops uint64 // spans lost to ring overflow
	Stages    []LatencyStage
}

// BreakdownFromSpans groups completed spans by name into per-stage duration
// distributions. ringDrops is the recorder's overflow counter, surfaced so a
// truncated breakdown is never mistaken for a complete one.
func BreakdownFromSpans(spans []otrace.Span, ringDrops uint64) *LatencyBreakdown {
	durs := make(map[string][]int64)
	drops := make(map[string]int)
	traces := make(map[uint64]struct{})
	for _, s := range spans {
		traces[s.Trace] = struct{}{}
		if s.Drop {
			drops[s.Name]++
			continue
		}
		durs[s.Name] = append(durs[s.Name], s.EndNs-s.StartNs)
		if s.QueueNs > 0 {
			durs[StageQueueWait] = append(durs[StageQueueWait], s.QueueNs)
		}
	}
	b := &LatencyBreakdown{Spans: len(spans), Traces: len(traces), RingDrops: ringDrops}
	names := make(map[string]struct{}, len(durs)+len(drops))
	for n := range durs {
		names[n] = struct{}{}
	}
	for n := range drops {
		names[n] = struct{}{}
	}
	for n := range names {
		st := LatencyStage{Stage: n, Drops: drops[n]}
		if ds := durs[n]; len(ds) > 0 {
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			var sum int64
			for _, d := range ds {
				sum += d
			}
			st.Count = len(ds)
			st.MeanNs = sum / int64(len(ds))
			st.P50Ns = quantileNs(ds, 0.50)
			st.P90Ns = quantileNs(ds, 0.90)
			st.P99Ns = quantileNs(ds, 0.99)
			st.MaxNs = ds[len(ds)-1]
		}
		b.Stages = append(b.Stages, st)
	}
	b.sortStages()
	return b
}

// quantileNs returns the nearest-rank q-quantile of sorted ds.
func quantileNs(ds []int64, q float64) int64 {
	if len(ds) == 0 {
		return 0
	}
	i := int(q * float64(len(ds)-1))
	return ds[i]
}

func (b *LatencyBreakdown) sortStages() {
	sort.Slice(b.Stages, func(i, j int) bool {
		oi, iok := stageOrder[b.Stages[i].Stage]
		oj, jok := stageOrder[b.Stages[j].Stage]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		}
		return b.Stages[i].Stage < b.Stages[j].Stage
	})
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// Render prints the per-stage table (durations in virtual milliseconds).
func (b *LatencyBreakdown) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "latency breakdown — %d spans across %d traces", b.Spans, b.Traces)
	if b.RingDrops > 0 {
		fmt.Fprintf(&sb, " (%d spans lost to ring overflow — distributions are truncated)", b.RingDrops)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-20s %8s %7s %10s %10s %10s %10s %10s\n",
		"stage", "count", "drops", "mean-ms", "p50-ms", "p90-ms", "p99-ms", "max-ms")
	for _, s := range b.Stages {
		fmt.Fprintf(&sb, "%-20s %8d %7d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			s.Stage, s.Count, s.Drops, ms(s.MeanNs), ms(s.P50Ns), ms(s.P90Ns), ms(s.P99Ns), ms(s.MaxNs))
	}
	return sb.String()
}

// Metrics exposes counts and key quantiles per stage.
func (b *LatencyBreakdown) Metrics() map[string]float64 {
	out := map[string]float64{
		"spans":      float64(b.Spans),
		"traces":     float64(b.Traces),
		"ring_drops": float64(b.RingDrops),
	}
	for _, s := range b.Stages {
		out["count:"+s.Stage] = float64(s.Count)
		if s.Drops > 0 {
			out["drops:"+s.Stage] = float64(s.Drops)
		}
		if s.Count > 0 {
			out["p50_ms:"+s.Stage] = ms(s.P50Ns)
			out["p99_ms:"+s.Stage] = ms(s.P99Ns)
		}
	}
	return out
}
