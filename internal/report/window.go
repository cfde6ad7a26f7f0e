package report

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"bitswapmon/internal/trace"
)

// WindowOptions configures rolling-window report evaluation.
type WindowOptions struct {
	// Width is each window's time span. Default 1h.
	Width time.Duration
	// Slide is the stride between window starts. Zero (or == Width) gives
	// tumbling windows; a smaller Slide gives overlapping sliding windows
	// and must divide Width evenly.
	Slide time.Duration
	// Keep bounds how many closed windows are retained (and published as
	// report_window_metric recency slots). Default 8.
	Keep int
	// Reports names the registry reports evaluated per window; each window
	// gets a fresh Driver over them (AddByName: a name listed twice is
	// rejected), so Finalize consumes nothing shared.
	Reports []string
	// Opts parametrises each window's report instances.
	Opts Options
	// Dedup is each window Driver's dedup switch: reports declaring
	// WantsDedup skip duplicate-flagged entries.
	Dedup bool
	// OnClose, when set, receives every finalized window in order — the
	// durable-retention hook (e.g. append one JSON line per window, so
	// rolled-up report state outlives raw-segment retention).
	OnClose func(WindowResult) error
}

func (o WindowOptions) withDefaults() (WindowOptions, error) {
	if o.Width <= 0 {
		o.Width = time.Hour
	}
	if o.Slide <= 0 {
		o.Slide = o.Width
	}
	if o.Slide > o.Width || o.Width%o.Slide != 0 {
		return o, fmt.Errorf("report: window slide %v must evenly divide width %v", o.Slide, o.Width)
	}
	if o.Keep <= 0 {
		o.Keep = 8
	}
	if len(o.Reports) == 0 {
		return o, fmt.Errorf("report: windowed driver needs at least one report name")
	}
	return o, nil
}

// WindowResult is one finalized window: the rolled-up report state that
// retention keeps after the window's raw segments expire. It marshals
// cleanly to JSON.
type WindowResult struct {
	// Start and End bound the window: [Start, End).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Entries counts the entries the window observed.
	Entries int `json:"entries"`
	// Partial marks a window finalized at shutdown before its span filled.
	Partial bool `json:"partial,omitempty"`
	// Metrics holds each report's headline numbers, keyed report → metric.
	Metrics map[string]map[string]float64 `json:"metrics"`
}

// OpenWindow is a live snapshot of a still-accumulating window.
type OpenWindow struct {
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Entries int       `json:"entries"`
	// Live carries current numbers for reports implementing LiveReporter.
	Live map[string]map[string]float64 `json:"live,omitempty"`
}

// WindowSnapshot is the queryable state of a WindowedDriver: what a monitor
// daemon serves on /reports.
type WindowSnapshot struct {
	Width       time.Duration  `json:"width_ns"`
	Slide       time.Duration  `json:"slide_ns"`
	Reports     []string       `json:"reports"`
	ClosedTotal uint64         `json:"closed_total"`
	LateEntries uint64         `json:"late_entries"`
	Closed      []WindowResult `json:"closed"`
	Open        []OpenWindow   `json:"open"`
}

// windowState is one in-flight window: a Driver over the window's entries.
type windowState struct {
	start, end int64 // ns
	entries    int
	drv        *Driver
}

// WindowedDriver evaluates a set of registry reports over tumbling or
// sliding windows of a live entry stream. It satisfies ingest.Sink, so it
// attaches anywhere a Driver does — typically behind an ingest.UnifySink on
// a running simulation's monitors. Each window is a Driver of its own over
// fresh report instances from the default registry, so windows share the
// one-pass Observe/Finalize contract and the per-report telemetry
// (report_entries_observed_total and the two latency histograms) with every
// other pass; when the stream's watermark passes a window's end, the window
// is finalized, retained in a bounded ring, published through the
// report_window_metric{report,metric,window} gauge family, and handed to
// OnClose for durable retention.
//
// Entries must arrive in nondecreasing timestamp order (a unified stream's
// natural order); a late entry whose windows have already closed is dropped
// and counted. Write and Snapshot are safe to call concurrently — the write
// path takes one uncontended mutex so an HTTP handler can read live state.
type WindowedDriver struct {
	opts         WindowOptions
	width, slide int64

	mu        sync.Mutex
	open      map[int64]*windowState // keyed by start/slide
	nextClose int64                  // earliest open-window end; MaxInt64 when none
	watermark int64
	anyEntry  bool
	closed    []WindowResult // oldest first, bounded by opts.Keep
	total     uint64
	late      uint64
	finalized bool
	err       error

	m *reportMetrics
}

// NewWindowedDriver validates the configuration (report names are resolved
// once against the default registry, so unknown or repeated names and
// unsatisfiable options fail fast) and returns an empty driver.
func NewWindowedDriver(opts WindowOptions) (*WindowedDriver, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// Probe-build the report set once on a throwaway Driver: a name that
	// cannot build now (unknown, listed twice, or missing context like a geo
	// DB) would otherwise surface mid-stream at the first window boundary.
	if err := NewDriver(opts.Dedup).AddByName(opts.Reports, opts.Opts); err != nil {
		return nil, err
	}
	return &WindowedDriver{
		opts:      opts,
		width:     int64(opts.Width),
		slide:     int64(opts.Slide),
		open:      make(map[int64]*windowState),
		nextClose: math.MaxInt64,
		m:         repMetrics.Load(),
	}, nil
}

// Write routes one entry into every window covering its timestamp, opening
// windows as the stream reaches them and closing windows the watermark has
// passed.
func (d *WindowedDriver) Write(e trace.Entry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if d.finalized {
		d.err = fmt.Errorf("report: windowed driver written after Close")
		return d.err
	}
	ts := e.Timestamp.UnixNano()
	if ts > d.watermark || !d.anyEntry {
		d.watermark = ts
		d.anyEntry = true
		if ts >= d.nextClose {
			if err := d.closeDue(); err != nil {
				d.err = err
				return err
			}
		}
	}

	// The entry belongs to every window [k*slide, k*slide+width) containing
	// ts: k in ((ts-width)/slide, ts/slide]. For tumbling windows that is
	// exactly one k.
	kMax := floorDiv(ts, d.slide)
	kMin := floorDiv(ts-d.width, d.slide) + 1
	for k := kMin; k <= kMax; k++ {
		st, ok := d.open[k]
		if !ok {
			if k*d.slide+d.width <= d.watermark {
				// A window that would already be closed: this is a late
				// entry for that span (possible only for out-of-order
				// sliding-window tails); drop it rather than reopen.
				d.late++
				if d.m != nil {
					d.m.windowLate.Inc()
				}
				continue
			}
			var err error
			if st, err = d.openWindow(k); err != nil {
				d.err = err
				return err
			}
		}
		st.entries++
		if err := st.drv.Write(e); err != nil {
			d.err = err
			return err
		}
	}
	return nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func (d *WindowedDriver) openWindow(k int64) (*windowState, error) {
	// The window's Driver is its pass: its reports share a numbering and a
	// popularity counter of their own, reachable only through them, so both
	// are garbage with the window and the daemon's memory stays bounded by
	// the window width.
	drv := NewDriver(d.opts.Dedup)
	if err := drv.AddByName(d.opts.Reports, d.opts.Opts); err != nil {
		return nil, err
	}
	st := &windowState{start: k * d.slide, end: k*d.slide + d.width, drv: drv}
	d.open[k] = st
	if st.end < d.nextClose {
		d.nextClose = st.end
	}
	return st, nil
}

// closeDue finalizes every open window whose end the watermark has reached,
// in start order, and recomputes the next close boundary. Caller holds mu.
func (d *WindowedDriver) closeDue() error {
	var due []*windowState
	for k, st := range d.open {
		if st.end <= d.watermark {
			due = append(due, st)
			delete(d.open, k)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].start < due[j].start })
	for _, st := range due {
		if err := d.finalizeWindow(st, false); err != nil {
			return err
		}
	}
	d.nextClose = math.MaxInt64
	for _, st := range d.open {
		if st.end < d.nextClose {
			d.nextClose = st.end
		}
	}
	return nil
}

// finalizeWindow completes one window's reports, retains and publishes the
// result, and invokes OnClose. Caller holds mu.
func (d *WindowedDriver) finalizeWindow(st *windowState, partial bool) error {
	res := WindowResult{
		Start:   time.Unix(0, st.start).UTC(),
		End:     time.Unix(0, st.end).UTC(),
		Entries: st.entries,
		Partial: partial,
	}
	results, err := st.drv.Finalize()
	if err != nil {
		return fmt.Errorf("report: window [%s, %s): %w",
			res.Start.Format(time.RFC3339), res.End.Format(time.RFC3339), err)
	}
	res.Metrics = make(map[string]map[string]float64, len(results))
	for _, nr := range results {
		res.Metrics[nr.Name] = nr.Result.Metrics()
	}
	d.closed = append(d.closed, res)
	if len(d.closed) > d.opts.Keep {
		d.closed = d.closed[len(d.closed)-d.opts.Keep:]
	}
	d.total++
	d.publish()
	if d.opts.OnClose != nil {
		if err := d.opts.OnClose(res); err != nil {
			return fmt.Errorf("report: window close hook: %w", err)
		}
	}
	return nil
}

// publish re-exports the retained windows as recency-slot gauges: slot "0"
// holds the newest closed window. Publication happens once per window close,
// so resolving label children here is off the per-entry path. Caller holds
// mu.
func (d *WindowedDriver) publish() {
	if d.m == nil {
		return
	}
	d.m.windowsClosed.Inc()
	for slot := 0; slot < len(d.closed); slot++ {
		res := d.closed[len(d.closed)-1-slot]
		label := strconv.Itoa(slot)
		d.m.windowStart.With(label).Set(float64(res.Start.Unix())) //bsvet:obshandle once per window close, documented cold path
		for report, metrics := range res.Metrics {
			for metric, v := range metrics {
				d.m.window.With(report, metric, label).Set(v) //bsvet:obshandle once per window close, documented cold path
			}
		}
	}
}

// Snapshot returns the retained closed windows plus live numbers for every
// still-open window — the /reports payload. Safe to call concurrently with
// Write.
func (d *WindowedDriver) Snapshot() WindowSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := WindowSnapshot{
		Width:       d.opts.Width,
		Slide:       d.opts.Slide,
		Reports:     append([]string(nil), d.opts.Reports...),
		ClosedTotal: d.total,
		LateEntries: d.late,
		Closed:      append([]WindowResult(nil), d.closed...),
	}
	for _, st := range d.open {
		ow := OpenWindow{
			Start:   time.Unix(0, st.start).UTC(),
			End:     time.Unix(0, st.end).UTC(),
			Entries: st.entries,
		}
		for i, r := range st.drv.active {
			lr, ok := r.(LiveReporter)
			if !ok {
				continue
			}
			if ow.Live == nil {
				ow.Live = make(map[string]map[string]float64)
			}
			ow.Live[st.drv.reports[i].Name] = lr.LiveMetrics()
		}
		snap.Open = append(snap.Open, ow)
	}
	sort.Slice(snap.Open, func(i, j int) bool { return snap.Open[i].Start.Before(snap.Open[j].Start) })
	return snap
}

// Close finalizes every still-open window (marked Partial, since their span
// had not filled) and returns all retained window results, oldest first.
// Call it once at shutdown, after the final entry; the driver rejects
// writes afterwards.
func (d *WindowedDriver) Close() ([]WindowResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return append([]WindowResult(nil), d.closed...), d.err
	}
	if !d.finalized {
		d.finalized = true
		var rest []*windowState
		for k, st := range d.open {
			rest = append(rest, st)
			delete(d.open, k)
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].start < rest[j].start })
		for _, st := range rest {
			if err := d.finalizeWindow(st, st.end > d.watermark); err != nil {
				d.err = err
				return append([]WindowResult(nil), d.closed...), err
			}
		}
	}
	return append([]WindowResult(nil), d.closed...), nil
}
