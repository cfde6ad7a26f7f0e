package report

import (
	"errors"
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
	// Reports names the registry reports evaluated per window (a name
	// listed twice is rejected, as AddByName rejects it). A report that
	// implements Merger is kept once per pane, a Slide-wide Driver that
	// observes each entry once, and a window closing merges its panes; any
	// other report keeps one instance per window, fed every entry of it.
	Reports []string
	// Opts parametrises every pane's and window's report instances.
	Opts Options
	// Dedup is the pane and window Drivers' dedup switch: reports
	// declaring WantsDedup skip duplicate-flagged entries.
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

// windowState is one in-flight window [start, end), start = k*Slide. Its
// mergeable reports live in panes k … k+Width/Slide−1; own holds the
// reports that cannot merge, fed every entry of the window (nil when there
// are none).
type windowState struct {
	k          int64
	start, end int64 // ns
	entries    int
	own        *Driver
}

// WindowedDriver evaluates a set of registry reports over tumbling or
// sliding windows of a live entry stream. It satisfies ingest.Sink, so it
// attaches anywhere a Driver does — typically behind an ingest.UnifySink on
// a running simulation's monitors.
//
// The stream is cut into panes, Slide wide, and each pane is a Driver of
// its own over fresh instances of the reports that implement Merger, so
// each entry is observed once however many windows overlap it. When the
// stream's watermark passes a window's end, the window adopts the report
// instances of its first pane, which no later window covers, and merges
// its other Width/Slide−1 panes into them; a tumbling window has one pane
// and merges nothing. Reports that cannot merge keep one Driver per window,
// fed every entry of the window. Either way a window reports exactly what a
// fresh Driver fed the window's entries alone would, and its reports are
// counted in the per-report telemetry (report_entries_observed_total, per
// window that covers the entry, and the two latency histograms) like every
// other pass. A closed window is retained in a bounded ring, published
// through the report_window_metric{report,metric,window} gauge family, and
// handed to OnClose for durable retention.
//
// Entries must arrive in nondecreasing timestamp order (a unified stream's
// natural order); a late entry whose windows have already closed is dropped
// and counted. Write and Snapshot are safe to call concurrently — the write
// path takes one uncontended mutex so an HTTP handler can read live state.
type WindowedDriver struct {
	opts         WindowOptions
	width, slide int64
	panesPer     int64 // width / slide
	// paneNames are the reports kept per pane, ownNames those kept per
	// window; live indexes the pane reports that are LiveReporters.
	paneNames, ownNames []string
	live                []int

	mu        sync.Mutex
	open      map[int64]*windowState // keyed by start/slide
	panes     map[int64]*Driver      // keyed by start/slide
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
	// The probe also sorts the reports into per-pane and per-window ones; a
	// tumbling window is one pane, so there every report is kept per pane.
	probe := NewDriver(opts.Dedup)
	if err := probe.AddByName(opts.Reports, opts.Opts); err != nil {
		return nil, err
	}
	d := &WindowedDriver{
		opts:      opts,
		width:     int64(opts.Width),
		slide:     int64(opts.Slide),
		panesPer:  int64(opts.Width / opts.Slide),
		open:      make(map[int64]*windowState),
		panes:     make(map[int64]*Driver),
		nextClose: math.MaxInt64,
		m:         repMetrics.Load(),
	}
	for i, r := range probe.active {
		name := probe.reports[i].Name
		if _, ok := r.(Merger); !ok && d.panesPer > 1 {
			d.ownNames = append(d.ownNames, name)
			continue
		}
		if _, ok := r.(LiveReporter); ok {
			d.live = append(d.live, len(d.paneNames))
		}
		d.paneNames = append(d.paneNames, name)
	}
	return d, nil
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
	took := false
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
		took = true
		st.entries++
		if st.own != nil {
			if err := st.own.Write(e); err != nil {
				d.err = err
				return err
			}
		}
	}
	if took {
		// The entry's pane is the first pane of window kMax. That window
		// ends last of those containing ts, so if any of them took the
		// entry it is open, and so is its first pane.
		if err := d.panes[kMax].Write(e); err != nil {
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

// openWindow opens window k, with its first pane: the pane every entry of
// the window's first Slide goes to, and the one the window adopts when it
// closes. No entry can have reached pane k before: it would have opened
// window k.
func (d *WindowedDriver) openWindow(k int64) (*windowState, error) {
	st := &windowState{k: k, start: k * d.slide, end: k*d.slide + d.width}
	if len(d.ownNames) > 0 {
		st.own = NewDriver(d.opts.Dedup)
		if err := st.own.AddByName(d.ownNames, d.opts.Opts); err != nil {
			return nil, err
		}
	}
	// A pane's Driver is its pass: its reports share a numbering and a
	// popularity counter of their own, reachable only through them, so both
	// are garbage with the window that adopts the pane and the daemon's
	// memory stays bounded by the window width. Its entry counts are held
	// until that window closes, which counts them once for every window the
	// pane was merged into; every pane shares the driver's telemetry handle,
	// so their counts line up.
	pane := &Driver{dedup: d.opts.Dedup, m: d.m, hold: true}
	if err := pane.AddByName(d.paneNames, d.opts.Opts); err != nil {
		return nil, err
	}
	d.panes[k] = pane
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
// result, and invokes OnClose. Windows close in start order, so every
// earlier window covering the window's first pane has merged it already:
// the window takes that pane's reports over and merges its later panes,
// which later windows still cover, into them. Caller holds mu.
func (d *WindowedDriver) finalizeWindow(st *windowState, partial bool) error {
	res := WindowResult{
		Start:   time.Unix(0, st.start).UTC(),
		End:     time.Unix(0, st.end).UTC(),
		Entries: st.entries,
		Partial: partial,
	}
	fail := func(err error) error {
		return fmt.Errorf("report: window [%s, %s): %w",
			res.Start.Format(time.RFC3339), res.End.Format(time.RFC3339), err)
	}
	drv := d.panes[st.k]
	delete(d.panes, st.k)
	for j := st.k + 1; j < st.k+d.panesPer; j++ {
		if pane := d.panes[j]; pane != nil {
			if err := drv.merge(pane); err != nil {
				return fail(err)
			}
		}
	}
	results, err := drv.Finalize()
	if st.own != nil {
		own, ownErr := st.own.Finalize()
		results, err = append(results, own...), errors.Join(err, ownErr)
	}
	if err != nil {
		return fail(err)
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
		snap.Open = append(snap.Open, OpenWindow{
			Start:   time.Unix(0, st.start).UTC(),
			End:     time.Unix(0, st.end).UTC(),
			Entries: st.entries,
			Live:    d.liveMetrics(st),
		})
	}
	sort.Slice(snap.Open, func(i, j int) bool { return snap.Open[i].Start.Before(snap.Open[j].Start) })
	return snap
}

// liveMetrics returns an open window's LiveReporter numbers. Caller holds
// mu.
func (d *WindowedDriver) liveMetrics(st *windowState) map[string]map[string]float64 {
	var live map[string]map[string]float64
	put := func(name string, r Report) {
		if lr, ok := r.(LiveReporter); ok {
			if live == nil {
				live = make(map[string]map[string]float64)
			}
			live[name] = lr.LiveMetrics()
		}
	}
	if len(d.live) > 0 {
		// paneView fails only where NewWindowedDriver's probe would have,
		// or where merging these panes at the window's close will.
		if view, err := d.paneView(st); err == nil {
			for _, i := range d.live {
				put(d.paneNames[i], view.active[i])
			}
		}
	}
	if st.own != nil {
		for i, r := range st.own.active {
			put(st.own.reports[i].Name, r)
		}
	}
	return live
}

// paneView returns a Driver whose LiveReporter reports hold what window st
// has observed so far: its one pane for a tumbling window, else the merge
// of its panes into fresh instances, dropped after use. Caller holds mu.
func (d *WindowedDriver) paneView(st *windowState) (*Driver, error) {
	if d.panesPer == 1 {
		return d.panes[st.k], nil
	}
	view := &Driver{dedup: d.opts.Dedup} // no telemetry: a view, not a pass
	if err := view.AddByName(d.paneNames, d.opts.Opts); err != nil {
		return nil, err
	}
	for j := st.k; j < st.k+d.panesPer; j++ {
		pane := d.panes[j]
		if pane == nil {
			continue
		}
		for _, i := range d.live {
			if err := view.active[i].(Merger).Merge(pane.active[i]); err != nil {
				return nil, err
			}
		}
	}
	return view, nil
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
