package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/obs"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// feedWindows writes the fixture's unified trace into a fresh driver and
// closes it, returning all window results plus the driver.
func feedWindows(t *testing.T, entries []trace.Entry, opts WindowOptions) ([]WindowResult, *WindowedDriver) {
	t.Helper()
	wd, err := NewWindowedDriver(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := wd.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	results, err := wd.Close()
	if err != nil {
		t.Fatal(err)
	}
	return results, wd
}

func TestWindowedTumblingPartitions(t *testing.T) {
	f := newFixture(t, 1)
	width := 10 * time.Minute
	results, wd := feedWindows(t, f.unified, WindowOptions{
		Width:   width,
		Keep:    1 << 20, // retain everything: this test audits the full partition
		Reports: []string{"traffic"},
		Dedup:   true,
	})
	if len(results) < 3 {
		t.Fatalf("fixture spans %d windows, want several", len(results))
	}
	total := 0
	for i, res := range results {
		total += res.Entries
		if !res.End.Equal(res.Start.Add(width)) {
			t.Fatalf("window %d spans [%s, %s), want width %s", i, res.Start, res.End, width)
		}
		if res.Start.UnixNano()%int64(width) != 0 {
			t.Fatalf("window %d start %s not aligned to width", i, res.Start)
		}
		if i > 0 && res.Start.Before(results[i-1].Start) {
			t.Fatalf("windows out of order at %d", i)
		}
	}
	if total != len(f.unified) {
		t.Fatalf("tumbling windows saw %d entries, stream has %d", total, len(f.unified))
	}
	if snap := wd.Snapshot(); snap.LateEntries != 0 {
		t.Fatalf("ordered stream produced %d late entries", snap.LateEntries)
	}

	// A middle (complete) window's numbers must equal a standalone traffic
	// report evaluated over exactly that window's slice of the stream.
	mid := results[len(results)/2]
	if mid.Partial {
		t.Fatal("middle window marked partial")
	}
	r, err := New("traffic", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range f.unified {
		if e.Timestamp.Before(mid.Start) || !e.Timestamp.Before(mid.End) {
			continue
		}
		if e.IsDuplicate() && r.WantsDedup() {
			continue
		}
		if err := r.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	out, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mid.Metrics["traffic"], out.Metrics()) {
		t.Fatalf("window metrics diverge from standalone report:\n  window: %v\n  direct: %v",
			mid.Metrics["traffic"], out.Metrics())
	}
}

func TestWindowedSlidingCoverage(t *testing.T) {
	f := newFixture(t, 2)
	results, wd := feedWindows(t, f.unified, WindowOptions{
		Width:   10 * time.Minute,
		Slide:   5 * time.Minute,
		Keep:    1 << 20,
		Reports: []string{"traffic"},
		Dedup:   true,
	})
	// Every entry lands in exactly width/slide = 2 overlapping windows.
	total := 0
	for _, res := range results {
		total += res.Entries
	}
	if want := 2 * len(f.unified); total != want {
		t.Fatalf("sliding windows saw %d entry-observations, want %d", total, want)
	}
	for i := 1; i < len(results); i++ {
		if got := results[i].Start.Sub(results[i-1].Start); got != 5*time.Minute {
			t.Fatalf("stride between windows %d and %d is %s", i-1, i, got)
		}
	}
	if snap := wd.Snapshot(); snap.LateEntries != 0 {
		t.Fatalf("ordered stream produced %d late entries", snap.LateEntries)
	}
}

func TestWindowedCloseOnWatermark(t *testing.T) {
	wd, err := NewWindowedDriver(WindowOptions{Width: time.Minute, Reports: []string{"traffic"}})
	if err != nil {
		t.Fatal(err)
	}
	e := func(at time.Time) trace.Entry {
		return trace.Entry{Timestamp: at, Monitor: "us", Type: wire.WantHave}
	}
	if err := wd.Write(e(t0.Add(10 * time.Second))); err != nil {
		t.Fatal(err)
	}
	if err := wd.Write(e(t0.Add(50 * time.Second))); err != nil {
		t.Fatal(err)
	}
	snap := wd.Snapshot()
	if len(snap.Closed) != 0 || len(snap.Open) != 1 || snap.Open[0].Entries != 2 {
		t.Fatalf("before the boundary: %+v", snap)
	}
	if snap.Open[0].Live["traffic"] == nil {
		t.Fatal("open window carries no live traffic metrics")
	}
	// Crossing the boundary closes the first window and opens the second.
	if err := wd.Write(e(t0.Add(70 * time.Second))); err != nil {
		t.Fatal(err)
	}
	snap = wd.Snapshot()
	if len(snap.Closed) != 1 || snap.Closed[0].Entries != 2 || snap.Closed[0].Partial {
		t.Fatalf("after the boundary: %+v", snap)
	}
	if len(snap.Open) != 1 || snap.Open[0].Entries != 1 {
		t.Fatalf("second window: %+v", snap.Open)
	}

	// A late entry for the closed window is dropped and counted, not
	// reopened.
	if err := wd.Write(e(t0.Add(30 * time.Second))); err != nil {
		t.Fatal(err)
	}
	snap = wd.Snapshot()
	if snap.LateEntries != 1 {
		t.Fatalf("late entry not counted: %+v", snap)
	}
	if len(snap.Closed) != 1 || snap.Closed[0].Entries != 2 {
		t.Fatal("late entry mutated a closed window")
	}
}

func TestWindowedCloseFlushesPartials(t *testing.T) {
	var hooked []WindowResult
	wd, err := NewWindowedDriver(WindowOptions{
		Width:   time.Minute,
		Reports: []string{"traffic"},
		OnClose: func(res WindowResult) error { hooked = append(hooked, res); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int{10, 70, 130} {
		e := trace.Entry{Timestamp: t0.Add(time.Duration(sec) * time.Second), Monitor: "us", Type: wire.WantHave}
		if err := wd.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	results, err := wd.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("want 3 windows, got %d", len(results))
	}
	if results[0].Partial || results[1].Partial {
		t.Fatal("watermark-closed windows marked partial")
	}
	if !results[2].Partial {
		t.Fatal("flushed open window not marked partial")
	}
	if !reflect.DeepEqual(hooked, results) {
		t.Fatal("OnClose hook saw different windows than Close returned")
	}
	// The driver is finalized: further writes fail.
	if err := wd.Write(trace.Entry{Timestamp: t0.Add(time.Hour), Monitor: "us"}); err == nil {
		t.Fatal("write after Close succeeded")
	}
}

// TestWindowedQuietWindowFig5: a window with too few CIDs for the fig5
// power-law fit (a daemon's quiet hour) must close like any other and leave
// the driver writable — a Finalize error there used to latch and fail every
// later Write.
func TestWindowedQuietWindowFig5(t *testing.T) {
	wd, err := NewWindowedDriver(WindowOptions{
		Width:   time.Hour,
		Reports: []string{"fig5"},
		Opts:    Options{BootstrapIters: 2},
		Dedup:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	write := func(at time.Duration, c byte) {
		t.Helper()
		e := trace.Entry{Timestamp: t0.Add(at), Monitor: "us", Type: wire.WantHave, CID: cid.Sum(cid.Raw, []byte{c})}
		if err := wd.Write(e); err != nil {
			t.Fatalf("write at +%s: %v", at, err)
		}
	}
	for i := 0; i < 3; i++ {
		write(time.Duration(i)*time.Minute, byte(i)) // hour one: 3 entries
	}
	for i := 0; i < 40; i++ {
		write(time.Hour+time.Duration(i)*time.Minute, byte(i%25)) // hour two: enough to fit
	}
	write(2*time.Hour, 0)
	results, err := wd.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0].Entries != 3 || results[1].Entries != 40 {
		t.Fatalf("windows: %+v", results)
	}
	quiet, busy := results[0].Metrics["fig5"], results[1].Metrics["fig5"]
	if quiet["cids"] != 3 {
		t.Errorf("quiet window counted %v CIDs, want 3", quiet["cids"])
	}
	if _, ok := quiet["rrp_alpha"]; ok {
		t.Errorf("quiet window reports a fit it could not make: %v", quiet)
	}
	if _, ok := busy["rrp_alpha"]; !ok || busy["cids"] != 25 {
		t.Errorf("busy window after the quiet one: %v", busy)
	}
}

// stretched returns the fixture's unified trace stretched from half an hour
// over three hours, order and flags kept.
func (f *fixture) stretched() []trace.Entry {
	entries := append([]trace.Entry(nil), f.unified...)
	for i := range entries {
		entries[i].Timestamp = t0.Add(6 * entries[i].Timestamp.Sub(t0))
	}
	return entries
}

// entryReports lists every registered report that observes entries: all but
// latency_breakdown, which reads spans.
func entryReports() []string {
	var names []string
	for _, name := range Names() {
		if name != "latency_breakdown" {
			names = append(names, name)
		}
	}
	return names
}

// overlapEvery is how often matchFreshDrivers' second run checks the open
// windows: a Snapshot waits for the close in flight, so between checks the
// closes run beside the writes. It is prime, so it does not fall into step
// with a fixture's windows.
const overlapEvery = 61

// matchFreshDrivers feeds entries, in the order given, through a windowed
// driver and checks it against fresh Drivers. The oracle follows the
// driver's contract: an entry reaches every window that contains its
// timestamp and ends after the watermark (the latest timestamp seen so far,
// this entry's included); for every other window containing it, it counts
// as late. The windows that close must be exactly those some entry
// reached, in start order, and each must report exactly what a fresh
// Driver over the names reports when fed the entries that reached it alone.
// The stream runs twice: once with the open windows checked after every
// write (checkOpenRun), which delivers each close before the next write,
// and once checked only every overlapEvery-th write and at the end, so
// that closes run beside the writes in between. It returns the results and
// the late count.
func matchFreshDrivers(t *testing.T, entries []trace.Entry, wopts WindowOptions) ([]WindowResult, uint64) {
	t.Helper()
	wopts.Keep = 1 << 20
	width, slide := int64(wopts.Width), int64(wopts.Slide)
	if slide == 0 {
		slide = width
	}
	seen := make(map[int64][]trace.Entry)
	var late uint64
	var watermark int64
	for i, e := range entries {
		ts := e.Timestamp.UnixNano()
		if i == 0 || ts > watermark {
			watermark = ts
		}
		for k := floorDiv(ts-width, slide) + 1; k <= floorDiv(ts, slide); k++ {
			if k*slide+width <= watermark {
				late++
			} else {
				seen[k] = append(seen[k], e)
			}
		}
	}
	var starts []int64
	for k := range seen {
		starts = append(starts, k)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	fresh := make([]Results, len(starts))
	for i, k := range starts {
		drv := NewDriver(wopts.Dedup)
		if err := drv.AddByName(wopts.Reports, wopts.Opts); err != nil {
			t.Fatal(err)
		}
		for _, e := range seen[k] {
			if err := drv.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if fresh[i], err = drv.Finalize(); err != nil {
			t.Fatal(err)
		}
	}

	var first []WindowResult
	for _, every := range []int{1, overlapEvery} {
		results, got := feedChecked(t, entries, wopts, every)
		if got != late {
			t.Errorf("checked every %d writes: late entries: driver counted %d, the oracle %d", every, got, late)
		}
		if len(results) != len(starts) {
			t.Fatalf("checked every %d writes: %d windows closed, the oracle has %d", every, len(results), len(starts))
		}
		for i, res := range results {
			k := starts[i]
			if res.Start.UnixNano() != k*slide {
				t.Fatalf("checked every %d writes: window %d starts %s, the oracle's at %s",
					every, i, res.Start, time.Unix(0, k*slide).UTC())
			}
			if n := len(seen[k]); n != res.Entries {
				t.Errorf("checked every %d writes: window %s: %d entries, the stream has %d there",
					every, res.Start.Format(time.TimeOnly), res.Entries, n)
			}
			for _, nr := range fresh[i] {
				if want := nr.Result.Metrics(); !reflect.DeepEqual(res.Metrics[nr.Name], want) {
					t.Errorf("checked every %d writes: window %s, %s:\n  window: %v\n  fresh:  %v",
						every, res.Start.Format(time.TimeOnly), nr.Name, res.Metrics[nr.Name], want)
				}
			}
		}
		if first == nil {
			first = results
		}
	}
	return first, late
}

// feedChecked writes entries into a fresh windowed driver and closes it.
// After every write whose count is a multiple of every, and after the
// last, the open windows must be those covering the watermark
// (checkOpenRun). It returns the closed windows and the late count.
func feedChecked(t *testing.T, entries []trace.Entry, wopts WindowOptions, every int) ([]WindowResult, uint64) {
	t.Helper()
	wd, err := NewWindowedDriver(wopts)
	if err != nil {
		t.Fatal(err)
	}
	width, slide := int64(wopts.Width), int64(wopts.Slide)
	if slide == 0 {
		slide = width
	}
	var watermark int64
	for i, e := range entries {
		if ts := e.Timestamp.UnixNano(); i == 0 || ts > watermark {
			watermark = ts
		}
		if err := wd.Write(e); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every == 0 || i == len(entries)-1 {
			checkOpenRun(t, wd.Snapshot().Open, width, slide, watermark)
		}
	}
	results, err := wd.Close()
	if err != nil {
		t.Fatal(err)
	}
	return results, wd.Snapshot().LateEntries
}

// checkOpenRun fails unless the open windows are exactly the Width/Slide
// windows covering the watermark: that many, with consecutive starts, the
// last at floor(watermark/Slide)·Slide.
func checkOpenRun(t *testing.T, open []OpenWindow, width, slide, watermark int64) {
	t.Helper()
	if int64(len(open)) != width/slide {
		t.Fatalf("watermark %s: %d open windows, want %d", time.Unix(0, watermark).UTC(), len(open), width/slide)
	}
	for i, w := range open {
		want := (floorDiv(watermark, slide) - int64(len(open)-1-i)) * slide
		if w.Start.UnixNano() != want {
			t.Fatalf("watermark %s: open window %d starts %s, want %s",
				time.Unix(0, watermark).UTC(), i, w.Start, time.Unix(0, want).UTC())
		}
	}
}

// TestWindowedMatchesFreshDriver: every closed window must report exactly
// what a fresh Driver reports when fed that window's entries alone, though
// its mergeable reports observed each entry once, in a pane, and reach it
// by merging panes — nothing of a neighbouring, overlapping window may leak
// in, and no merge may lose or double anything. The first case is the
// daemon's shape; the others cover every entry-driven report at 1, 2, 4
// and 12 panes per window, a gap of empty panes (which closes several
// windows at once), an out-of-order entry, and one that lands in a pane a
// close in flight is merging. The 2-pane case adds the span-driven
// latency_breakdown, which windows merge like the others.
func TestWindowedMatchesFreshDriver(t *testing.T) {
	f := newFixture(t, 4)
	all := f.opts()
	all.Bucket = 15 * time.Minute
	all.BootstrapIters = 3
	traced := all
	traced.Tracer = spanTracer()
	// gap moves every entry from the three-quarter mark on three hours
	// later: three hours of empty panes, which no window opens for.
	gap := func(entries []trace.Entry) []trace.Entry {
		for i := 3 * len(entries) / 4; i < len(entries); i++ {
			entries[i].Timestamp = entries[i].Timestamp.Add(3 * time.Hour)
		}
		return entries
	}
	// lateEntry inserts, right after the first entry at or past 1:47, a copy
	// of an entry stamped 1:07. The watermark is then in [1:47, 2:00), so
	// of the four 1 h windows sliding by 15 m that contain 1:07, those
	// ending 1:15, 1:30 and 1:45 have closed: the entry is late for three
	// windows and reaches the one ending 2:00.
	lateEntry := func(entries []trace.Entry) []trace.Entry {
		for i, e := range entries {
			if e.Timestamp.Before(t0.Add(107 * time.Minute)) {
				continue
			}
			if !e.Timestamp.Before(t0.Add(2 * time.Hour)) {
				t.Fatal("the fixture has no entry in [1:47, 2:00)")
			}
			late := entries[i/2]
			late.Timestamp = t0.Add(67 * time.Minute)
			return append(entries[:i+1], append([]trace.Entry{late}, entries[i+1:]...)...)
		}
		t.Fatal("the fixture ends before 1:47")
		return nil
	}
	// lateInFlight inserts, right after the first entry at or past 2:00, a
	// copy of an entry stamped 1:50. That first entry closes the window
	// ending 2:00, whose close merges the pane starting 1:45; the copy is
	// late for that window alone and lands in that pane while the close is
	// in flight, unless a check delivered it in between.
	lateInFlight := func(entries []trace.Entry) []trace.Entry {
		for i, e := range entries {
			if e.Timestamp.Before(t0.Add(2 * time.Hour)) {
				continue
			}
			if !e.Timestamp.Before(t0.Add(135 * time.Minute)) {
				t.Fatal("the fixture has no entry in [2:00, 2:15)")
			}
			if (i+1)%overlapEvery == 0 {
				t.Fatal("the write closing the window ending 2:00 is a checked one")
			}
			late := entries[i/2]
			late.Timestamp = t0.Add(110 * time.Minute)
			return append(entries[:i+1], append([]trace.Entry{late}, entries[i+1:]...)...)
		}
		t.Fatal("the fixture ends before 2:00")
		return nil
	}
	for _, tc := range []struct {
		name       string
		slide      time.Duration
		reports    []string
		opts       Options
		edit       func([]trace.Entry) []trace.Entry
		minWindows int
		late       uint64
	}{
		{name: "daemon", slide: 15 * time.Minute,
			reports:    []string{"summary", "traffic", "online", "popularity", "fig5"},
			opts:       Options{BootstrapIters: 3, GatewayIDs: f.gatewayIDs},
			minWindows: 12},
		{name: "tumbling", slide: time.Hour, reports: entryReports(), opts: all, minWindows: 3},
		{name: "2 panes", slide: 30 * time.Minute, reports: append(entryReports(), "latency_breakdown"),
			opts: traced, minWindows: 6},
		{name: "4 panes, gap, late", slide: 15 * time.Minute, reports: entryReports(), opts: all,
			edit: func(e []trace.Entry) []trace.Entry { return lateEntry(gap(e)) }, minWindows: 12, late: 3},
		{name: "4 panes, late beside a close", slide: 15 * time.Minute, reports: entryReports(), opts: all,
			edit: lateInFlight, minWindows: 12, late: 1},
		{name: "12 panes, gap", slide: 5 * time.Minute, reports: entryReports(), opts: all,
			edit: gap, minWindows: 36},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entries := f.stretched()
			if tc.edit != nil {
				entries = tc.edit(entries)
			}
			results, late := matchFreshDrivers(t, entries, WindowOptions{
				Width:   time.Hour,
				Slide:   tc.slide,
				Reports: tc.reports,
				Opts:    tc.opts,
				Dedup:   true,
			})
			if len(results) < tc.minWindows {
				t.Fatalf("fixture spans %d windows, want %d or more", len(results), tc.minWindows)
			}
			if late != tc.late {
				t.Errorf("%d late entries, want %d", late, tc.late)
			}
			if tc.slide < time.Hour && !results[0].Start.Before(entries[0].Timestamp.Truncate(tc.slide)) {
				t.Errorf("first window starts %s, not before the first entry's pane", results[0].Start)
			}
		})
	}
}

// FuzzWindowedMatchesFreshDriver is TestWindowedMatchesFreshDriver over
// drawn streams: a seeded fixture, a Width/Slide ratio, a gap of empty
// panes, an entry delivered late and a subset of the entry-driven reports.
func FuzzWindowedMatchesFreshDriver(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(900), uint8(5), uint16(400), uint16(50), uint16(0xffff))
	f.Add(int64(2), uint8(5), uint16(0), uint8(0), uint16(1200), uint16(170), uint16(0x0101))
	f.Add(int64(3), uint8(0), uint16(1700), uint8(30), uint16(5), uint16(0), uint16(0x00f0))
	f.Fuzz(func(t *testing.T, seed int64, ratio uint8, gapAt uint16, gapPanes uint8, lateAt, lateBack, mask uint16) {
		fx := newFixture(t, seed%16)
		slide := time.Hour / time.Duration([]int{1, 2, 3, 4, 6, 12}[ratio%6])
		entries := fx.stretched()
		for i := int(gapAt) % len(entries); gapPanes > 0 && i < len(entries); i++ {
			entries[i].Timestamp = entries[i].Timestamp.Add(time.Duration(gapPanes%64) * slide)
		}
		if lateBack > 0 {
			i := int(lateAt) % len(entries)
			late := entries[i]
			late.Timestamp = late.Timestamp.Add(-time.Duration(lateBack%240) * time.Minute)
			entries = append(entries[:i+1], append([]trace.Entry{late}, entries[i+1:]...)...)
		}
		var names []string
		for i, name := range entryReports() {
			if mask&(1<<i) != 0 {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			names = []string{"traffic"}
		}
		opts := fx.opts()
		opts.Bucket = 15 * time.Minute
		opts.BootstrapIters = 2
		matchFreshDrivers(t, entries, WindowOptions{
			Width:   time.Hour,
			Slide:   slide,
			Reports: names,
			Opts:    opts,
			Dedup:   true,
		})
	})
}

func TestWindowedDriverOptionValidation(t *testing.T) {
	if _, err := NewWindowedDriver(WindowOptions{Reports: []string{"no-such-report"}}); err == nil {
		t.Fatal("unknown report accepted")
	}
	if _, err := NewWindowedDriver(WindowOptions{}); err == nil {
		t.Fatal("empty report list accepted")
	}
	if _, err := NewWindowedDriver(WindowOptions{Width: 10 * time.Minute, Slide: 3 * time.Minute, Reports: []string{"traffic"}}); err == nil {
		t.Fatal("non-dividing slide accepted")
	}
	if _, err := NewWindowedDriver(WindowOptions{Width: 10 * time.Minute, Slide: 20 * time.Minute, Reports: []string{"traffic"}}); err == nil {
		t.Fatal("slide above width accepted")
	}
}

// TestWindowedDriverRejectsDuplicateReport: a window is a Driver, so a
// report listed twice is refused up front, as Driver.AddByName refuses it —
// not run twice per window with the second result overwriting the first.
func TestWindowedDriverRejectsDuplicateReport(t *testing.T) {
	_, err := NewWindowedDriver(WindowOptions{Reports: []string{"traffic", "online", "traffic"}})
	if err == nil || !strings.Contains(err.Error(), `"traffic" listed twice`) {
		t.Fatalf("duplicate report name: err = %v", err)
	}
}

// TestWindowedReportTelemetry: every window's reports are counted in the
// same per-report families as any Driver's. Over 1 h windows sliding by
// 15 m each entry lands in four windows, so report_entries_observed_total
// is, per report, the sum over windows of the entries that report observed:
// every raw entry for summary, only the deduplicated ones for online.
func TestWindowedReportTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(obs.NewRegistry()) // isolate later tests from reg

	f := newFixture(t, 5)
	entries := append([]trace.Entry(nil), f.unified...)
	for i := range entries {
		entries[i].Timestamp = t0.Add(6 * entries[i].Timestamp.Sub(t0))
	}
	results, _ := feedWindows(t, entries, WindowOptions{
		Width:   time.Hour,
		Slide:   15 * time.Minute,
		Keep:    1 << 20,
		Reports: []string{"summary", "online"},
		Dedup:   true,
	})
	var summaryObserved, onlineObserved float64
	for _, res := range results {
		summaryObserved += res.Metrics["summary"]["entries"]
		onlineObserved += res.Metrics["online"]["entries"]
	}
	const perEntry = 4 // width / slide
	if want := float64(perEntry * len(entries)); summaryObserved != want {
		t.Fatalf("summary windows observed %v entries, want %v", summaryObserved, want)
	}
	if want := float64(perEntry * len(f.dedup)); onlineObserved != want {
		t.Fatalf("online windows observed %v entries, want %v", onlineObserved, want)
	}

	snap := reg.Snapshot()
	for report, want := range map[string]float64{"summary": summaryObserved, "online": onlineObserved} {
		if got := snap[`report_entries_observed_total{report="`+report+`"}`]; got != want {
			t.Errorf("report_entries_observed_total{report=%q} = %v, want %v", report, got, want)
		}
		if got := snap[`report_finalize_seconds_count{report="`+report+`"}`]; got != float64(len(results)) {
			t.Errorf("report_finalize_seconds_count{report=%q} = %v, want one per window (%d)", report, got, len(results))
		}
	}
}

func TestWindowedKeepBoundsRetention(t *testing.T) {
	f := newFixture(t, 3)
	results, wd := feedWindows(t, f.unified, WindowOptions{
		Width:   5 * time.Minute,
		Keep:    3,
		Reports: []string{"traffic"},
		Dedup:   true,
	})
	if len(results) != 3 {
		t.Fatalf("retained %d windows, want Keep=3", len(results))
	}
	snap := wd.Snapshot()
	if int(snap.ClosedTotal) <= len(results) {
		t.Fatalf("total %d should exceed retained %d", snap.ClosedTotal, len(results))
	}
	// The retained windows are the newest ones, oldest first.
	for i := 1; i < len(results); i++ {
		if got := results[i].Start.Sub(results[i-1].Start); got != 5*time.Minute {
			t.Fatalf("retained windows not adjacent newest: stride %s", got)
		}
	}
}

// TestWindowGaugePublication scrapes a fresh registry and asserts the
// recency-slot gauge family: slot "0" is the newest closed window, with
// report_window_start_seconds mapping slots to window starts.
func TestWindowGaugePublication(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(obs.NewRegistry()) // isolate later tests from reg

	f := newFixture(t, 4)
	results, _ := feedWindows(t, f.unified, WindowOptions{
		Width:   10 * time.Minute,
		Keep:    4,
		Reports: []string{"traffic"},
		Dedup:   true,
	})

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`report_window_metric{report="traffic",metric="dedup_entries",window="0"}`,
		`report_window_metric{report="traffic",metric="dedup_entries",window="1"}`,
		`report_window_start_seconds{window="0"}`,
		"report_windows_closed_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
	// Slot 0 carries the newest window's numbers.
	newest := results[len(results)-1]
	wantLine := `report_window_metric{report="traffic",metric="dedup_entries",window="0"} ` +
		formatGaugeValue(newest.Metrics["traffic"]["dedup_entries"])
	if !strings.Contains(text, wantLine) {
		t.Fatalf("slot 0 does not hold newest window (want %q):\n%s", wantLine, text)
	}
	wantStart := `report_window_start_seconds{window="0"} ` + formatGaugeValue(float64(newest.Start.Unix()))
	if !strings.Contains(text, wantStart) {
		t.Fatalf("slot 0 start gauge wrong (want %q)", wantStart)
	}
}

// formatGaugeValue mirrors the obs exposition format for gauge values
// (shortest round-trip 'g' formatting).
func formatGaugeValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// TestWindowedPinnedOutput pins, byte for byte, what a windowed driver
// publishes over a seeded fixture with every entry-driven report: the
// OnClose JSON lines of 1 h windows sliding by 15 m and of 1 h tumbling
// windows, and the /reports snapshot taken halfway through the stream.
// Any change to how windows are evaluated must leave these digests alone.
func TestWindowedPinnedOutput(t *testing.T) {
	f := newFixture(t, 6)
	// Stretch the half-hour fixture over three hours, order and flags kept.
	entries := append([]trace.Entry(nil), f.unified...)
	for i := range entries {
		entries[i].Timestamp = t0.Add(6 * entries[i].Timestamp.Sub(t0))
	}
	var names []string
	for _, name := range Names() {
		if name != "latency_breakdown" {
			names = append(names, name)
		}
	}
	opts := f.opts()
	opts.Bucket = 15 * time.Minute
	opts.BootstrapIters = 3
	for _, tc := range []struct {
		slide          time.Duration
		closed, middle string
	}{
		{15 * time.Minute,
			"9ab70aaad617f461c7b62f29000ae834a5d5199901735c5a54d25890b8b086d9",
			"f21efa3890a3080a3f2c447c5109fdf0b1b051703c123fbcf9197d87ca0e009c"},
		{time.Hour,
			"ff09a022fbf60ab21f7f3ecc7e43093ff2b8dae3ec80182bbc6f67158858bf8d",
			"3825b7633c739293bf8f71ea9a08f69a66e54c914dda93176b80d4f982c40b6b"},
	} {
		var lines bytes.Buffer
		enc := json.NewEncoder(&lines)
		wd, err := NewWindowedDriver(WindowOptions{
			Width:   time.Hour,
			Slide:   tc.slide,
			Keep:    3,
			Reports: names,
			Opts:    opts,
			Dedup:   true,
			OnClose: func(res WindowResult) error { return enc.Encode(res) },
		})
		if err != nil {
			t.Fatal(err)
		}
		var middle []byte
		for i, e := range entries {
			if err := wd.Write(e); err != nil {
				t.Fatal(err)
			}
			if i == len(entries)/2 {
				if middle, err = json.Marshal(wd.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := wd.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(lines.Bytes())); got != tc.closed {
			t.Errorf("slide %s: OnClose lines hash %s, pinned %s", tc.slide, got, tc.closed)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(middle)); got != tc.middle {
			t.Errorf("slide %s: mid-stream snapshot hash %s, pinned %s", tc.slide, got, tc.middle)
		}
	}
}

// TestWindowedLatencyBreakdownAtClose: a window's latency_breakdown is the
// tracer as it stood at the Write that closed the window, though its
// Finalize runs beside the writer. Spans recorded after that Write and
// before the next are not in it; the window Close finalizes has them.
func TestWindowedLatencyBreakdownAtClose(t *testing.T) {
	tr := spanTracer()
	wd, err := NewWindowedDriver(WindowOptions{
		Width:   time.Minute,
		Reports: []string{"traffic", "latency_breakdown"},
		Opts:    Options{Tracer: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	write := func(sec int) {
		t.Helper()
		e := trace.Entry{Timestamp: t0.Add(time.Duration(sec) * time.Second), Monitor: "us", Type: wire.WantHave}
		if err := wd.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	write(10)
	write(70) // closes [0:00, 0:01)
	atClose := BreakdownFromSpans(tr.Spans(), tr.Dropped()).Metrics()
	vt := func(ns int64) time.Time { return time.Unix(0, ns) }
	for i := int64(0); i < 3; i++ {
		req := tr.Root(uint64(2+i), "request", "gw", vt(2000*i))
		tr.Start(req.Ctx(), "dht.lookup", "n2", vt(2000*i+10)).End(vt(2000*i + 900))
		req.End(vt(2000*i + 1500))
	}
	write(80)
	results, err := wd.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("want 2 windows, got %d", len(results))
	}
	if got := results[0].Metrics["latency_breakdown"]; !reflect.DeepEqual(got, atClose) {
		t.Errorf("closed window's breakdown:\n  got:      %v\n  at close: %v", got, atClose)
	}
	if got, want := results[1].Metrics["latency_breakdown"], BreakdownFromSpans(tr.Spans(), tr.Dropped()).Metrics(); !reflect.DeepEqual(got, want) {
		t.Errorf("window closed by Close:\n  got:  %v\n  want: %v", got, want)
	}
	if results[1].Metrics["latency_breakdown"]["spans"] == atClose["spans"] {
		t.Error("the spans recorded after the close did not reach the tracer")
	}
}

// TestWindowedCloseErrorsLatch: an error a close meets, from its OnClose
// hook or from a report's Finalize, is returned by the Write or Close that
// delivers it and by every later Write, and Close returns the windows
// delivered before it. One entry per minute-wide window: the entry in
// window n+1 hands window n's close off, and the entry in window n+2, or
// Close, delivers it.
func TestWindowedCloseErrorsLatch(t *testing.T) {
	reports["broken"] = func(Options) (Report, error) { return failingReport{}, nil }
	defer delete(reports, "broken")
	errHook := errors.New("hook failed")
	for _, tc := range []struct {
		name    string
		reports []string
		hook    func(n int) error // for the n-th window delivered, from 0
		seconds []int             // one write each
		// failAt is the write that returns the error; len(seconds) means
		// Close does.
		failAt    int
		delivered int
		want      string
	}{
		{name: "hook fails on the second window", reports: []string{"traffic"},
			hook: func(n int) error {
				if n == 1 {
					return errHook
				}
				return nil
			},
			// The hook runs last in a delivery, so the window whose hook
			// fails is retained with the one before it.
			seconds: []int{10, 70, 130, 190, 250}, failAt: 3, delivered: 2, want: "hook failed"},
		{name: "finalize fails, a write delivers", reports: []string{"traffic", "broken"},
			seconds: []int{10, 70, 130, 190}, failAt: 2, want: "report broken: no result"},
		{name: "finalize fails, Close delivers", reports: []string{"traffic", "broken"},
			seconds: []int{10, 70}, failAt: 2, want: "report broken: no result"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hooked int
			wopts := WindowOptions{Width: time.Minute, Reports: tc.reports}
			if tc.hook != nil {
				wopts.OnClose = func(WindowResult) error {
					hooked++
					return tc.hook(hooked - 1)
				}
			}
			wd, err := NewWindowedDriver(wopts)
			if err != nil {
				t.Fatal(err)
			}
			var latched error
			for i, sec := range tc.seconds {
				err := wd.Write(trace.Entry{Timestamp: t0.Add(time.Duration(sec) * time.Second), Monitor: "us", Type: wire.WantHave})
				switch {
				case i < tc.failAt && err != nil:
					t.Fatalf("write %d: %v, before the failing close is delivered", i, err)
				case i == tc.failAt:
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("write %d delivers the failing close: err = %v, want %q", i, err, tc.want)
					}
					latched = err
				case i > tc.failAt && !errors.Is(err, latched):
					t.Fatalf("write %d after the failure: err = %v, want the latched %v", i, err, latched)
				}
			}
			results, err := wd.Close()
			if tc.failAt == len(tc.seconds) {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Close delivers the failing close: err = %v, want %q", err, tc.want)
				}
				latched = err
			} else if !errors.Is(err, latched) {
				t.Fatalf("Close: err = %v, want the latched %v", err, latched)
			}
			if len(results) != tc.delivered {
				t.Fatalf("Close returned %d windows, want the %d delivered", len(results), tc.delivered)
			}
			if err := wd.Write(trace.Entry{Timestamp: t0.Add(time.Hour), Monitor: "us"}); !errors.Is(err, latched) {
				t.Fatalf("write after Close: err = %v, want the latched %v", err, latched)
			}
		})
	}
}
