// Package report is the unified streaming analysis surface: every table and
// figure derived from a monitoring trace is a Report that observes one entry
// at a time and finalizes into a Result. New constructs a built-in report
// by name from Options, and a Driver tees a single pass over any
// ingest.EntrySource — or, since the Driver is itself an ingest.Sink, a live
// simulation — through any combination of reports.
//
// The package replaces the figure-shaped batch paths (ComputeFig4…ComputeFig6,
// ComputeTable1/2) that demanded a fully materialized []trace.Entry: every
// built-in report accumulates in one pass with memory bounded by its own
// state (codec counters, time buckets, popularity score maps), never by
// trace length. Every report also merges another instance's state exactly,
// which is how the daemon's sliding windows observe each entry once. Adding
// a new metric means implementing Report and adding its constructor to the
// report table, and every consumer — bsanalyze, sweep summaries, the
// daemon's windows — can run it by name.
package report

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/obs"
	"bitswapmon/internal/trace"
)

// Report consumes a unified trace stream in one pass. Implementations
// accumulate whatever state the analysis needs and produce their Result once
// the stream ends. Every report merges exactly, so a WindowedDriver keeps
// it once per pane and merges the panes of a window when it closes.
type Report interface {
	// WantsDedup reports whether the analysis is defined over the
	// deduplicated view of the unified trace (Sec. IV-B flags removed).
	// The Driver skips duplicate-flagged entries for reports that want
	// dedup; reports of the raw trace (e.g. Table I, the summary) see
	// every entry.
	WantsDedup() bool
	// Observe folds one entry into the report's state.
	Observe(e trace.Entry) error
	// Merge folds from's state into the report's: after it, Finalize
	// returns exactly what one instance that had observed both streams
	// would. from is an instance of the same report built with the same
	// options, never finalized, and it is left unchanged, so it can be
	// merged into other instances too. latency_breakdown merges trivially,
	// its only state being the tracer every instance reads at Finalize.
	//
	// Reports of one pass share their Symbols and popularity counter, so
	// merging one of them stands for the whole pass only when every report
	// of the pass merges with its counterpart: the report that feeds the
	// shared counter merges it, the others merge nothing of it.
	Merge(from Report) error
	// Finalize completes the analysis. A report is single-use: Observe
	// must not be called after Finalize.
	Finalize() (Result, error)
}

// Result is one finished analysis artifact.
type Result interface {
	// Render prints the artifact as the paper-style text table/figure.
	Render() string
	// Metrics exposes the artifact's headline numbers by name, the
	// currency of cross-run comparison (sweep summaries, window rollups).
	Metrics() map[string]float64
}

// ErrUnknownReport is wrapped by New for names not in the report table.
var ErrUnknownReport = errors.New("report: unknown report")

// New constructs the named built-in report. Unknown names error with the
// list of report names, so callers (e.g. bsanalyze) can surface what is
// available. A report built outside a Driver is a pass of its own: its
// numbering, popularity counter and power-law tests are private.
func New(name string, opts Options) (Report, error) {
	ctor, ok := reports[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (available: %s)", ErrUnknownReport, name, strings.Join(Names(), ", "))
	}
	if opts.pass == nil {
		opts.pass = newPassState()
	}
	return ctor(opts)
}

// Names lists the built-in report names, sorted.
func Names() []string {
	out := make([]string, 0, len(reports))
	for name := range reports {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NamedResult pairs a finalized result with the report name that produced
// it.
type NamedResult struct {
	Name   string
	Result Result
}

// Results is a Driver's finalized output, in the order reports were added.
type Results []NamedResult

// Get returns the named result, or nil if the driver did not run it.
func (rs Results) Get(name string) Result {
	for _, nr := range rs {
		if nr.Name == name {
			return nr.Result
		}
	}
	return nil
}

// Driver tees one pass of a unified entry stream through a set of reports.
// It satisfies ingest.Sink, so it can terminate a streaming pipeline
// (StreamUnifier over segment stores) or be attached live to running
// monitors through ingest.Tee / ingest.UnifySink — simulations emit their
// figures without retaining traces.
type Driver struct {
	dedup   bool
	reports []NamedResult // Result nil until Finalize
	active  []Report
	// pass is what the reports AddByName constructs share (peer/CID
	// numbering, popularity counter, power-law tests); it lives as long as
	// the driver's one pass.
	pass *passState

	// m is the telemetry handle resolved at NewDriver; nil when metrics
	// were never enabled. written counts the entries written since the last
	// flush and dups those of them withheld from reports that want dedup,
	// so a report's entry count is written, less dups when it WantsDedup.
	m       *reportMetrics
	met     []reportHandles
	written uint64
	dups    uint64
	// hold keeps the counts from flushing before Finalize: a WindowedDriver
	// pane is counted once per window that merges it, when that window
	// closes.
	hold bool
}

// NewDriver returns an empty driver. dedup controls whether reports that
// declare WantsDedup see the deduplicated view; pass false to feed every
// report the raw trace (bsanalyze -dedup=false).
func NewDriver(dedup bool) *Driver {
	return &Driver{dedup: dedup, m: repMetrics.Load()}
}

// add attaches one report instance under a display name.
func (d *Driver) add(name string, r Report) {
	d.reports = append(d.reports, NamedResult{Name: name})
	d.active = append(d.active, r)
	if d.m != nil {
		d.met = append(d.met, reportHandles{
			entries:  d.m.entries.With(name),
			observe:  d.m.observe.With(name),
			finalize: d.m.finalize.With(name),
		})
	}
}

// AddByName constructs each named report from opts bound to this driver's
// pass — every report of the pass shares one numbering, popularity counter
// and Sec. V-E result — and attaches it. The first unknown name aborts with
// New's available-names error; a name already attached to this driver is
// rejected (running a report twice doubles its per-entry work for an
// identical result).
func (d *Driver) AddByName(names []string, opts Options) error {
	if d.pass == nil {
		d.pass = newPassState()
	}
	opts.pass = d.pass
	for _, name := range names {
		for _, nr := range d.reports {
			if nr.Name == name {
				return fmt.Errorf("report: %q listed twice", name)
			}
		}
		r, err := New(name, opts)
		if err != nil {
			return err
		}
		d.add(name, r)
	}
	return nil
}

// Write routes one entry to every attached report, honouring each report's
// dedup requirement. With telemetry on, Observe latency is timed on a
// 1-in-observeSampleStride sample of writes and the entry counts flush
// every counterFlushStride writes.
func (d *Driver) Write(e trace.Entry) error {
	dup := d.dedup && e.IsDuplicate()
	d.written++
	if dup {
		d.dups++
	}
	sample := d.m != nil && d.written%observeSampleStride == 0
	for i, r := range d.active {
		if dup && r.WantsDedup() {
			continue
		}
		if sample {
			var sw obs.Stopwatch
			sw.Start()
			err := r.Observe(e)
			d.met[i].observe.ObserveDuration(sw.Elapsed())
			if err != nil {
				return err
			}
		} else if err := r.Observe(e); err != nil {
			return err
		}
	}
	if d.m != nil && d.written%counterFlushStride == 0 && !d.hold {
		d.flushCounts()
	}
	return nil
}

// merge folds every report of from into its counterpart here, and adds
// from's entry counts to d's. Both drivers were built by AddByName over the
// same names and options with the same telemetry handle.
func (d *Driver) merge(from *Driver) error {
	for i, r := range d.active {
		if err := r.Merge(from.active[i]); err != nil {
			return fmt.Errorf("report %s: %w", d.reports[i].Name, err)
		}
	}
	d.written += from.written
	d.dups += from.dups
	return nil
}

// Run streams src to completion through the attached reports: the single
// pass shared by every report in the set. It is ingest.Copy, so src is read
// a batch ahead on a goroutine of its own while the reports observe on the
// caller's; after a failed Run, src may have been read up to 1,536 entries
// past the last one observed.
func (d *Driver) Run(src ingest.EntrySource) error {
	_, err := ingest.Copy(d, src)
	return err
}

// Finalize completes every report and returns the results in Add order. A
// failing report does not discard the others' completed work: its slot is
// returned with a nil Result and the errors are joined, so callers can
// surface what succeeded alongside the failure.
func (d *Driver) Finalize() (Results, error) {
	if d.m != nil {
		d.flushCounts()
	}
	var errs []error
	for i, r := range d.active {
		var sw obs.Stopwatch
		if d.m != nil {
			sw.Start()
		}
		res, err := r.Finalize()
		if d.m != nil {
			d.met[i].finalize.ObserveDuration(sw.Elapsed())
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("report %s: %w", d.reports[i].Name, err))
			continue
		}
		d.reports[i].Result = res
	}
	return d.reports, errors.Join(errs...)
}
