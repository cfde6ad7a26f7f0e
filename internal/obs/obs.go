// Package obs is the repository's dependency-free metrics layer: atomic
// counters, gauges and fixed-bucket histograms, optionally grouped into
// labeled families, registered in a Registry that exposes everything in
// Prometheus text format (WriteTo for snapshot dumps, Handler for a live
// /metrics endpoint, ServeWith for a metrics+pprof mux).
//
// The design constraint is that instrumentation must be free to carry and
// nearly free to skip: every constructor and every metric method is nil-safe,
// so a subsystem can hold its metric handles in an atomic pointer that stays
// nil until the operator opts in (EnableMetrics in each instrumented
// package). A disabled hot path pays one atomic pointer load and a branch;
// an enabled counter increment is one atomic add. There are no allocations
// on any metric's update path.
//
// Metric names follow the Prometheus conventions used by production IPFS
// gateways: snake_case, a subsystem prefix, a _total suffix on counters and
// base units (seconds, bytes) on histograms.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stopwatch times a stretch of code for instrumentation. It hands out only
// the elapsed duration, never an absolute wall time, so the simulation-facing
// packages (where bsvet's nowalltime pass bans time.Now) can time themselves
// without holding a host-clock reading that results could come to depend on.
// The zero value is ready to Start.
type Stopwatch struct {
	start time.Time
}

// Start begins (or restarts) timing.
func (s *Stopwatch) Start() { s.start = time.Now() }

// Elapsed returns the wall time since the last Start.
func (s *Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are nil-safe no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down. The zero value is ready
// to use; all methods are nil-safe no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (negative deltas subtract).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution with cumulative exposition and
// bucket-interpolated quantile estimation. All methods are nil-safe no-ops.
type Histogram struct {
	// bounds are the buckets' inclusive upper bounds, ascending; an
	// implicit +Inf bucket follows the last bound.
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1
	total   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (typically ≤ 20): a linear scan beats binary search's
	// branch misses for small n and keeps the code allocation-free.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds, the Prometheus base unit.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExponentialBuckets returns n bounds start, start*factor, …
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind discriminates a family's exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled instance inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one named metric: help, type and its labeled children. An
// unlabeled metric is a family with a single child under the empty key.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

func (f *family) child(labelValues []string) *child {
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), labelValues...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = newHistogram(f.bounds)
	}
	f.children[key] = c
	return c
}

// sortedChildren snapshots the children ordered by label values, the stable
// exposition order.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// Registry holds metric families. The zero value is not usable; NewRegistry
// returns one. Every method is safe on a nil *Registry and returns nil
// metric handles, whose methods are in turn no-ops — the backbone of the
// "disabled metrics cost one branch" property.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry that EnableMetrics hooks and the
// command-line -metrics-addr flag use.
var Default = NewRegistry()

// register returns the named family, creating it on first use. Registering
// an existing name with a different type or label arity panics: two callers
// disagreeing about a metric's identity is a programming error that silent
// merging would hide.
func (r *Registry) register(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// Counter returns the named unlabeled counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	if f == nil {
		return nil
	}
	return f.child(nil).counter
}

// Gauge returns the named unlabeled gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	if f == nil {
		return nil
	}
	return f.child(nil).gauge
}

// Histogram returns the named unlabeled histogram, creating it on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, bounds)
	if f == nil {
		return nil
	}
	return f.child(nil).hist
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec returns the named labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(name, help, kindCounter, labels, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// With returns the child counter for the given label values (nil on a nil
// vec). Resolve children once at setup time, not on the hot path.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).counter
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec returns the named labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.register(name, help, kindGauge, labels, nil)
	if f == nil {
		return nil
	}
	return &GaugeVec{f: f}
}

// With returns the child gauge for the given label values (nil on a nil
// vec).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).gauge
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec returns the named labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, kindHistogram, labels, bounds)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// With returns the child histogram for the given label values (nil on a nil
// vec).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).hist
}

// sortedFamilies snapshots the families in name order.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot flattens every metric into a map keyed by its exposition series
// name ("name" or `name{l="v",…}`; histograms contribute _count and _sum).
// It is the programmatic read side used by progress reporting and tests.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.sortedFamilies() {
		for _, c := range f.sortedChildren() {
			key := f.name + labelString(f.labels, c.labelValues)
			switch f.kind {
			case kindCounter:
				out[key] = float64(c.counter.Value())
			case kindGauge:
				out[key] = c.gauge.Value()
			case kindHistogram:
				out[f.name+"_count"+labelString(f.labels, c.labelValues)] = float64(c.hist.Count())
				out[f.name+"_sum"+labelString(f.labels, c.labelValues)] = c.hist.Sum()
			}
		}
	}
	return out
}
