package report

import (
	"fmt"
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
	// Reports names the reports evaluated per window (a name
	// listed twice is rejected, as AddByName rejects it). Each is kept once
	// per pane, a Slide-wide Driver that observes each entry once, and a
	// window closing merges its panes.
	Reports []string
	// Opts parametrises every pane's report instances.
	Opts Options
	// Dedup is the pane Drivers' dedup switch: reports declaring
	// WantsDedup skip duplicate-flagged entries.
	Dedup bool
	// OnClose, when set, receives every finalized window in order — the
	// durable-retention hook (e.g. append one JSON line per window, so
	// rolled-up report state outlives raw-segment retention). A window's
	// merge and Finalize run beside the writer; OnClose is called, under
	// the driver's lock, at the first Write, Snapshot or Close after they
	// finish, on that call's goroutine.
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

// windowState is one open window [start, end), start = k*Slide. pane is
// its first pane, the Driver that every entry of the window's first Slide
// goes to; the window adopts it when it closes and merges into it the first
// panes of the windows after it.
type windowState struct {
	k          int64
	start, end int64 // ns
	entries    int
	pane       *Driver
}

// WindowedDriver evaluates a set of reports over tumbling or
// sliding windows of a live entry stream. It satisfies ingest.Sink, so it
// attaches anywhere a Driver does — typically behind an ingest.UnifySink on
// a running simulation's monitors.
//
// The stream is cut into panes, Slide wide, and each pane is a Driver of
// its own over fresh instances of the reports, so each entry is observed
// once however many windows overlap it. The open windows are one
// start-ordered run: after every write they are exactly the Width/Slide
// windows that cover the watermark, each holding its first pane. When the
// watermark passes the first window's end, that window adopts its first
// pane's report instances, which no later window covers, and merges the
// first panes of the windows after it into them; a tumbling window has one
// pane and merges nothing. A window reports exactly what a fresh Driver
// fed the window's entries alone would, and its reports are counted in the
// per-report telemetry
// (report_entries_observed_total, per window that covers the entry, and the
// two latency histograms) like every other pass. A closed window is
// retained in a bounded ring, published through the
// report_window_metric{report,metric,window} gauge family, and handed to
// OnClose for durable retention.
//
// A window's merge and Finalize run beside the writer: the Write that
// passes the window's end hands its panes to a goroutine of their own and
// goes on. The result is delivered — into the ring, the gauges and OnClose
// — under the driver's lock and in window order, at the first Write after
// the close has finished, or at a Snapshot or Close, which wait for it. At
// most one close is in flight: the next close waits for it, and so does an
// entry stamped before its end, which can land in a pane it reads. In-order
// entries cannot: past a window's end they reach only later panes.
//
// Entries must arrive in nondecreasing timestamp order (a unified stream's
// natural order); a late entry whose windows have already closed is dropped
// and counted. Write and Snapshot are safe to call concurrently — the write
// path takes one uncontended mutex so an HTTP handler can read live state.
type WindowedDriver struct {
	opts         WindowOptions
	width, slide int64
	panesPer     int64 // width / slide
	// live indexes the reports that are LiveReporters.
	live []int

	mu sync.Mutex
	// open holds the open windows in start order: consecutive starts, the
	// last at floor(watermark/Slide)·Slide, so every window after the first
	// starts inside the first's span. It is empty only before the first
	// write.
	open      []*windowState
	watermark int64
	closed    []WindowResult // oldest first, bounded by opts.Keep
	// closing is the close in flight, nil when none is: its merge and
	// Finalize run on a goroutine of their own, and deliver retires it.
	closing   *windowClose
	total     uint64
	late      uint64
	finalized bool
	err       error

	m *reportMetrics
}

// NewWindowedDriver validates the configuration (report names are resolved
// once against the report table, so unknown or repeated names and
// unsatisfiable options fail fast) and returns an empty driver.
func NewWindowedDriver(opts WindowOptions) (*WindowedDriver, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// Probe-build the report set once on a throwaway Driver: a name that
	// cannot build now (unknown, listed twice, or missing context like a geo
	// DB) would otherwise surface mid-stream at the first window boundary.
	probe := NewDriver(opts.Dedup)
	if err := probe.AddByName(opts.Reports, opts.Opts); err != nil {
		return nil, err
	}
	d := &WindowedDriver{
		opts:     opts,
		width:    int64(opts.Width),
		slide:    int64(opts.Slide),
		panesPer: int64(opts.Width / opts.Slide),
		m:        repMetrics.Load(),
	}
	for i, r := range probe.active {
		if _, ok := r.(LiveReporter); ok {
			d.live = append(d.live, i)
		}
	}
	return d, nil
}

// Write routes one entry into every open window covering its timestamp,
// closing the windows the watermark has passed and opening those it
// reaches.
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
	// The close in flight is delivered if it has finished; an entry stamped
	// before its window's end waits for it, as its pane may be one the close
	// is reading.
	if err := d.deliver(d.closing != nil && ts < d.closing.end); err != nil {
		d.err = err
		return err
	}
	if ts > d.watermark || len(d.open) == 0 {
		if err := d.advance(ts); err != nil {
			d.err = err
			return err
		}
	}

	// The entry belongs to every window [k*slide, k*slide+width) containing
	// ts: k in ((ts-width)/slide, ts/slide]. ts is at most the watermark, so
	// none of them starts after the last open window, and those starting
	// before the first have closed: the entry is late for them (possible
	// only for out-of-order entries) and is dropped there rather than
	// reopening them.
	front := d.open[0].k
	kMax := floorDiv(ts, d.slide)
	if kMin := floorDiv(ts-d.width, d.slide) + 1; kMin < front {
		late := uint64(min(front, kMax+1) - kMin)
		d.late += late
		if d.m != nil {
			d.m.windowLate.Add(late)
		}
	}
	if kMax < front {
		return nil
	}
	// The open windows from the first up to window kMax contain ts, and the
	// entry's pane is the first pane of window kMax.
	for _, st := range d.open[:kMax-front+1] {
		st.entries++
	}
	if err := d.open[kMax-front].pane.Write(e); err != nil {
		d.err = err
		return err
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

// advance moves the watermark up to ts: it closes, in start order, the
// open windows ending at or before ts, then opens the windows after the
// last open one up to the one containing ts, so the open windows are again
// those that cover the watermark. Caller holds mu.
func (d *WindowedDriver) advance(ts int64) error {
	d.watermark = ts
	for len(d.open) > 0 && d.open[0].end <= ts {
		if err := d.closeFirst(false); err != nil {
			return err
		}
	}
	k := floorDiv(ts-d.width, d.slide) + 1
	if n := len(d.open); n > 0 {
		k = d.open[n-1].k + 1
	}
	for ; k <= floorDiv(ts, d.slide); k++ {
		st, err := d.openWindow(k)
		if err != nil {
			return err
		}
		d.open = append(d.open, st)
	}
	return nil
}

// openWindow builds window k with its first pane. No entry can have
// reached pane k before: window k opens when the watermark first reaches
// its start, before the entry that moved it is written.
func (d *WindowedDriver) openWindow(k int64) (*windowState, error) {
	st := &windowState{k: k, start: k * d.slide, end: k*d.slide + d.width}
	// A pane's Driver is its pass: its reports share a numbering, a
	// popularity counter and power-law tests of their own, reachable only
	// through them, so all are garbage with the window that adopts the pane
	// and the daemon's memory stays bounded by the window width. Its entry
	// counts are held until that window closes, which counts them once for
	// every window the pane was merged into; every pane shares the driver's
	// telemetry handle, so their counts line up.
	st.pane = &Driver{dedup: d.opts.Dedup, m: d.m, hold: true}
	if err := st.pane.AddByName(d.opts.Reports, d.opts.Opts); err != nil {
		return nil, err
	}
	return st, nil
}

// windowClose is one window's close, handed off by closeFirst: its
// closer merges and finalizes the window's panes, then closes done, and
// deliver reads res and err after done is closed. The closer takes no
// lock, so waiting for it under mu cannot deadlock.
type windowClose struct {
	res  WindowResult // Metrics set by the closer
	end  int64        // the window's end, ns
	done chan struct{}
	err  error
}

// closeFirst drops the first open window from the run and hands its close
// off, once the close before it has been delivered. Windows close in start
// order, so every earlier window covering the window's first pane has
// merged it already: the window takes that pane's reports over and merges
// into them the first panes of the still-open windows, which all start
// inside its span and which later windows still cover. Caller holds mu.
func (d *WindowedDriver) closeFirst(partial bool) error {
	if err := d.deliver(true); err != nil {
		return err
	}
	st := d.open[0]
	d.open[0] = nil
	d.open = d.open[1:]
	panes := make([]*Driver, len(d.open))
	for i, next := range d.open {
		panes[i] = next.pane
	}
	// What a Finalize reads from outside the pass, latency_breakdown's
	// tracer, is taken now, so the window's result does not depend on when
	// its closer runs.
	for _, r := range st.pane.active {
		if lr, ok := r.(*latencyReport); ok {
			lr.freeze()
		}
	}
	c := &windowClose{
		res: WindowResult{
			Start:   time.Unix(0, st.start).UTC(),
			End:     time.Unix(0, st.end).UTC(),
			Entries: st.entries,
			Partial: partial,
		},
		end:  st.end,
		done: make(chan struct{}),
	}
	d.closing = c
	go func() {
		defer close(c.done)
		c.err = c.finalize(st.pane, panes)
	}()
	return nil
}

// finalize merges panes into drv, the window's adopted pane, finalizes it
// and fills in the result's metrics.
func (c *windowClose) finalize(drv *Driver, panes []*Driver) error {
	fail := func(err error) error {
		return fmt.Errorf("report: window [%s, %s): %w",
			c.res.Start.Format(time.RFC3339), c.res.End.Format(time.RFC3339), err)
	}
	for _, p := range panes {
		if err := drv.merge(p); err != nil {
			return fail(err)
		}
	}
	results, err := drv.Finalize()
	if err != nil {
		return fail(err)
	}
	c.res.Metrics = make(map[string]map[string]float64, len(results))
	for _, nr := range results {
		c.res.Metrics[nr.Name] = nr.Result.Metrics()
	}
	return nil
}

// deliver retires the close in flight once its closer has finished,
// waiting for it when wait is set: it retains and publishes the window's
// result and invokes OnClose, or returns the closer's error. Caller holds
// mu.
func (d *WindowedDriver) deliver(wait bool) error {
	c := d.closing
	if c == nil {
		return nil
	}
	if wait {
		<-c.done
	} else {
		select {
		case <-c.done:
		default:
			return nil
		}
	}
	d.closing = nil
	if c.err != nil {
		return c.err
	}
	d.closed = append(d.closed, c.res)
	if len(d.closed) > d.opts.Keep {
		d.closed = d.closed[len(d.closed)-d.opts.Keep:]
	}
	d.total++
	d.publish()
	if d.opts.OnClose != nil {
		if err := d.opts.OnClose(c.res); err != nil {
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
// still-open window — the /reports payload. It waits for the close in
// flight and delivers it first, so a window the stream has passed is among
// the closed ones. Safe to call concurrently with Write; an error the
// delivery meets is returned by the next Write or Close.
func (d *WindowedDriver) Snapshot() WindowSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil {
		d.err = d.deliver(true)
	}
	snap := WindowSnapshot{
		Width:       d.opts.Width,
		Slide:       d.opts.Slide,
		Reports:     append([]string(nil), d.opts.Reports...),
		ClosedTotal: d.total,
		LateEntries: d.late,
		Closed:      append([]WindowResult(nil), d.closed...),
	}
	for i, st := range d.open {
		snap.Open = append(snap.Open, OpenWindow{
			Start:   time.Unix(0, st.start).UTC(),
			End:     time.Unix(0, st.end).UTC(),
			Entries: st.entries,
			Live:    d.liveMetrics(i),
		})
	}
	return snap
}

// liveMetrics returns the LiveReporter numbers of open window i. Caller
// holds mu.
func (d *WindowedDriver) liveMetrics(i int) map[string]map[string]float64 {
	if len(d.live) == 0 {
		return nil
	}
	// paneView fails only where NewWindowedDriver's probe would have, or
	// where merging these panes at the window's close will.
	view, err := d.paneView(i)
	if err != nil {
		return nil
	}
	live := make(map[string]map[string]float64, len(d.live))
	for _, j := range d.live {
		live[view.reports[j].Name] = view.active[j].(LiveReporter).LiveMetrics()
	}
	return live
}

// paneView returns a Driver whose LiveReporter reports hold what open
// window i has observed so far: its one pane for a tumbling window, else
// the merge of its pane and those of the open windows after it, which all
// start inside its span, into fresh instances, dropped after use. Caller
// holds mu.
func (d *WindowedDriver) paneView(i int) (*Driver, error) {
	if d.panesPer == 1 {
		return d.open[i].pane, nil
	}
	view := &Driver{dedup: d.opts.Dedup} // no telemetry: a view, not a pass
	if err := view.AddByName(d.opts.Reports, d.opts.Opts); err != nil {
		return nil, err
	}
	for _, st := range d.open[i:] {
		for _, j := range d.live {
			if err := view.active[j].Merge(st.pane.active[j]); err != nil {
				return nil, err
			}
		}
	}
	return view, nil
}

// Close finalizes every still-open window (marked Partial: each ends after
// the watermark, so its span had not filled) and returns all retained
// window results, oldest first, once every close has been delivered. Call
// it once at shutdown, after the final entry; the driver rejects writes
// afterwards.
func (d *WindowedDriver) Close() ([]WindowResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil && !d.finalized {
		d.finalized = true
		for d.err == nil && len(d.open) > 0 {
			d.err = d.closeFirst(true)
		}
	}
	if d.err == nil {
		d.err = d.deliver(true)
	}
	return append([]WindowResult(nil), d.closed...), d.err
}
