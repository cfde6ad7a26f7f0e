package report

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/trace"
)

// sameResult fails unless two results agree in Render and in Metrics.
func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if g, w := got.Render(), want.Render(); g != w {
		t.Errorf("%s: Render differs:\n--- merged\n%s\n--- one pass\n%s", what, g, w)
	}
	if g, w := got.Metrics(), want.Metrics(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: Metrics differ:\n  merged:   %v\n  one pass: %v", what, g, w)
	}
}

// runDriver feeds entries through a fresh Driver over names, numbering
// through syms, or through a Symbols of its own when syms is nil.
func runDriver(t *testing.T, syms *trace.Symbols, names []string, opts Options, entries ...[]trace.Entry) *Driver {
	t.Helper()
	drv := NewDriver(true)
	if syms != nil {
		drv.pass = &passState{syms: syms}
	}
	if err := drv.AddByName(names, opts); err != nil {
		t.Fatal(err)
	}
	for _, s := range entries {
		if err := drv.Run(ingest.SliceSource(s)); err != nil {
			t.Fatal(err)
		}
	}
	return drv
}

// TestMergeLaw: for every report, A observes s1 and B observes s2; after
// A.Merge(B), A finalizes to exactly what one instance over s1‖s2 does, in
// Render and in Metrics, and B still finalizes to its own stream's result.
// It runs each report alone (a private counter) and all of them as one
// pass, where fig5 and popularity share one popularity counter that only
// its feeder merges. A and B number through one Symbols, as the panes of a
// WindowedDriver do, so every id-keyed merge works by index.
func TestMergeLaw(t *testing.T) {
	f := newFixture(t, 7)
	opts := f.opts()
	opts.Bucket = 10 * time.Minute // several fig4 buckets and fig6 slices per half
	opts.BootstrapIters = 5
	opts.Tracer = spanTracer()
	names := Names()
	for _, want := range []string{"summary", "traffic", "online", "table1", "table2", "fig4", "fig5", "fig6", "popularity", "latency_breakdown"} {
		found := false
		for _, name := range names {
			found = found || name == want
		}
		if !found {
			t.Fatalf("%s is not a report (reports: %v)", want, names)
		}
	}

	n := len(f.unified)
	for _, cut := range []int{0, n / 3, n / 2, n} {
		s1, s2 := f.unified[:cut], f.unified[cut:]
		t.Run(fmt.Sprintf("%d+%d/pass", len(s1), len(s2)), func(t *testing.T) {
			syms := trace.NewSymbols()
			a, b := runDriver(t, syms, names, opts, s1), runDriver(t, syms, names, opts, s2)
			if err := a.merge(b); err != nil {
				t.Fatal(err)
			}
			merged, err := a.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			whole, err := runDriver(t, nil, names, opts, s1, s2).Finalize()
			if err != nil {
				t.Fatal(err)
			}
			from, err := b.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			only, err := runDriver(t, nil, names, opts, s2).Finalize()
			if err != nil {
				t.Fatal(err)
			}
			for i, nr := range whole {
				sameResult(t, nr.Name, merged[i].Result, nr.Result)
				sameResult(t, nr.Name+" (merged from)", from[i].Result, only[i].Result)
			}
		})
		for _, name := range names {
			t.Run(fmt.Sprintf("%d+%d/%s", len(s1), len(s2), name), func(t *testing.T) {
				// observe feeds a fresh instance, alone in a pass numbered by
				// syms.
				observe := func(syms *trace.Symbols, entries ...[]trace.Entry) Report {
					o := opts
					o.pass = &passState{syms: syms}
					r, err := New(name, o)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range entries {
						for _, e := range s {
							if r.WantsDedup() && e.IsDuplicate() {
								continue
							}
							if err := r.Observe(e); err != nil {
								t.Fatal(err)
							}
						}
					}
					return r
				}
				syms := trace.NewSymbols()
				a := observe(syms, s1)
				if err := a.Merge(observe(syms, s2)); err != nil {
					t.Fatal(err)
				}
				merged, err := a.Finalize()
				if err != nil {
					t.Fatal(err)
				}
				whole, err := observe(trace.NewSymbols(), s1, s2).Finalize()
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, name, merged, whole)
			})
		}
	}
}

// spanTracer returns a span recorder holding one finished request with a
// Bitswap round under it, enough for latency_breakdown to report stages.
func spanTracer() *otrace.Tracer {
	tr := otrace.New(otrace.Config{Sample: 1, Seed: 1})
	vt := func(ns int64) time.Time { return time.Unix(0, ns) }
	req := tr.Root(1, "request", "gw", vt(0))
	tr.Start(req.Ctx(), "bitswap.get", "n1", vt(100)).End(vt(300))
	req.End(vt(1000))
	return tr
}

// TestMergeRejectsOtherReport: a report merges only an instance of itself.
func TestMergeRejectsOtherReport(t *testing.T) {
	f := newFixture(t, 1)
	opts := f.opts()
	opts.Tracer = spanTracer()
	traffic, err := New("traffic", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		if name == "traffic" {
			continue
		}
		r, err := New(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Merge(traffic); err == nil {
			t.Errorf("%s merged a traffic report", name)
		}
	}
}

// TestMergeRejectsOtherNumbering: ids mean nothing outside the Symbols that
// issued them, so a report keeping state by ids (summary, online, fig5,
// popularity) refuses to merge an instance numbered by another Symbols, and
// is left as it was. The reports that keep nothing by id merge it.
func TestMergeRejectsOtherNumbering(t *testing.T) {
	f := newFixture(t, 3)
	opts := f.opts()
	opts.BootstrapIters = 3
	s1, s2 := f.unified[:len(f.unified)/2], f.unified[len(f.unified)/2:]
	byID := map[string]bool{"summary": true, "online": true, "fig5": true, "popularity": true}
	refused := 0
	for _, name := range entryReports() {
		observe := func(entries []trace.Entry) Report {
			r, err := New(name, opts) // a pass, and a numbering, of its own
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if r.WantsDedup() && e.IsDuplicate() {
					continue
				}
				if err := r.Observe(e); err != nil {
					t.Fatal(err)
				}
			}
			return r
		}
		a := observe(s1)
		err := a.Merge(observe(s2))
		if !byID[name] {
			if err != nil {
				t.Errorf("%s: merging across numberings: %v", name, err)
			}
			continue
		}
		if !errors.Is(err, trace.ErrOtherNumbering) {
			t.Errorf("%s: merging across numberings returned %v, want %v", name, err, trace.ErrOtherNumbering)
			continue
		}
		refused++
		got, err := a.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		want, err := observe(s1).Finalize()
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, name+" after a refused merge", got, want)
	}
	if refused != len(byID) {
		t.Errorf("%d of the %d reports keeping state by id refused the merge", refused, len(byID))
	}
}
