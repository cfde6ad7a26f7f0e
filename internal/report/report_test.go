package report

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/geoip"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/obs"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/popularity"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// --- fixture ----------------------------------------------------------------

type fixture struct {
	geo     *geoip.DB
	traces  [][]trace.Entry // one per monitor, time-ordered, raw
	unified []trace.Entry   // batch trace.Unify output
	dedup   []trace.Entry

	gatewayIDs  map[simnet.NodeID]bool
	megagateIDs map[simnet.NodeID]bool
}

// newFixture builds a seeded two-monitor trace with every behaviour the
// reports care about: multiple codecs, resolvable and unresolvable
// addresses, gateway/megagate/user requesters, CANCELs, rebroadcasts within
// the 31 s window and inter-monitor duplicates within the 5 s window.
func newFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{
		geo:         geoip.New(),
		gatewayIDs:  make(map[simnet.NodeID]bool),
		megagateIDs: make(map[simnet.NodeID]bool),
	}

	const nodes = 40
	ids := make([]simnet.NodeID, nodes)
	addrs := make([]string, nodes)
	regions := f.geo.Countries()
	for i := range ids {
		ids[i][0], ids[i][1] = byte(i), 0xfe
		if i%7 == 0 {
			addrs[i] = "250.0.0.1:4001" // unallocated prefix: Table II "unknown"
			continue
		}
		addr, err := f.geo.Allocate(regions[i%len(regions)])
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		if i%5 == 0 {
			f.gatewayIDs[ids[i]] = true
			if i%10 == 0 {
				f.megagateIDs[ids[i]] = true
			}
		}
	}
	codecs := []cid.Codec{cid.DagProtobuf, cid.DagProtobuf, cid.DagProtobuf, cid.Raw, cid.DagCBOR}
	cids := make([]cid.CID, 120)
	for i := range cids {
		cids[i] = cid.Sum(codecs[i%len(codecs)], []byte{byte(i), byte(seed)})
	}

	for _, mon := range []string{"us", "de"} {
		var tr []trace.Entry
		at := t0
		for i := 0; i < 900; i++ {
			at = at.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
			n := rng.Intn(nodes)
			// Zipf-ish CID choice so fig5 has a popular head.
			c := cids[int(float64(len(cids))*rng.Float64()*rng.Float64())]
			typ := wire.WantHave
			switch rng.Intn(10) {
			case 0:
				typ = wire.Cancel
			case 1, 2, 3:
				typ = wire.WantBlock
			}
			tr = append(tr, trace.Entry{
				Timestamp: at,
				Monitor:   mon,
				NodeID:    ids[n],
				Addr:      addrs[n],
				Type:      typ,
				CID:       c,
			})
		}
		f.traces = append(f.traces, tr)
	}
	f.unified = trace.Unify(f.traces...)
	f.dedup = trace.Deduplicated(f.unified)
	if len(f.dedup) == len(f.unified) {
		t.Fatal("fixture produced no duplicates; windows not exercised")
	}
	return f
}

// run streams the fixture's unified trace through one report via a
// dedup-enabled driver and returns the result.
func (f *fixture) run(t *testing.T, name string, opts Options) Result {
	t.Helper()
	drv := NewDriver(true)
	if err := drv.AddByName([]string{name}, opts); err != nil {
		t.Fatal(err)
	}
	if err := drv.Run(ingest.SliceSource(f.unified)); err != nil {
		t.Fatal(err)
	}
	results, err := drv.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return results.Get(name)
}

func (f *fixture) opts() Options {
	return Options{
		Bucket:         time.Hour,
		BootstrapIters: 10,
		Geo:            f.geo,
		GatewayIDs:     f.gatewayIDs,
		MegagateIDs:    f.megagateIDs,
	}
}

// --- legacy batch references ------------------------------------------------

// The functions below are the pre-redesign slice-based computations
// (analysis.ComputeTable1/2, ComputeFig4/5/6), kept verbatim as test-only
// references: each golden test proves the one-pass report is byte-identical
// to them before trusting the streaming path.

func legacyTable1(entries []trace.Entry) *Table1 {
	counts := make(map[cid.Codec]int)
	total := 0
	for _, e := range entries {
		if !e.IsRequest() {
			continue
		}
		counts[e.CID.Codec()]++
		total++
	}
	t := &Table1{Total: total}
	for codec, n := range counts {
		t.Rows = append(t.Rows, Table1Row{Codec: codec.String(), Count: n, Share: float64(n) / float64(total)})
	}
	t.sortRows()
	return t
}

func legacyTable2(entries []trace.Entry, db *geoip.DB) *Table2 {
	counts := make(map[simnet.Region]int)
	t := &Table2{}
	for _, e := range entries {
		if !e.IsRequest() {
			continue
		}
		region, ok := db.Lookup(e.Addr)
		if !ok {
			t.Unknown++
			continue
		}
		counts[region]++
		t.Total++
	}
	for region, n := range counts {
		t.Rows = append(t.Rows, Table2Row{Country: region, Count: n, Share: float64(n) / float64(t.Total)})
	}
	t.sortRows()
	return t
}

func legacyFig4(entries []trace.Entry, bucket time.Duration) *Fig4 {
	byBucket := make(map[int64]*Fig4Bucket)
	for _, e := range entries {
		if !e.IsRequest() {
			continue
		}
		k := e.Timestamp.UnixNano() / int64(bucket)
		b, ok := byBucket[k]
		if !ok {
			b = &Fig4Bucket{Start: time.Unix(0, k*int64(bucket)).UTC()}
			byBucket[k] = b
		}
		switch e.Type {
		case wire.WantBlock:
			b.WantBlock++
		case wire.WantHave:
			b.WantHave++
		}
	}
	out := &Fig4{BucketSize: bucket}
	for _, b := range byBucket {
		out.Buckets = append(out.Buckets, *b)
	}
	out.sortBuckets()
	return out
}

// sortedValues returns the values of scores in ascending order.
func sortedValues(scores map[cid.CID]int) []int {
	out := make([]int, 0, len(scores))
	for _, v := range scores {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func legacyFig5(t *testing.T, entries []trace.Entry, iters int, rng *rand.Rand) *Fig5 {
	t.Helper()
	scores := popularity.Compute(entries)
	rrp, urp := sortedValues(scores.RRP), sortedValues(scores.URP)
	f := &Fig5{scoreDists: scoreDists{
		CIDs:      len(rrp),
		RRPECDF:   popularity.ECDF(rrp),
		URPECDF:   popularity.ECDF(urp),
		URPShare1: popularity.ShareWithValue(urp, 1),
	}}
	var err error
	f.RRP.Rejected, f.RRP.Fit, f.RRP.PValue, err = popularity.RejectsPowerLaw(rrp, iters, rng)
	if err != nil {
		t.Fatal(err)
	}
	f.URP.Rejected, f.URP.Fit, f.URP.PValue, err = popularity.RejectsPowerLaw(urp, iters, rng)
	if err != nil {
		t.Fatal(err)
	}
	f.RRP.Fitted, f.URP.Fitted = true, true
	return f
}

func legacyFig6(entries []trace.Entry, gatewayIDs, megagateIDs map[simnet.NodeID]bool, slice time.Duration) *Fig6 {
	bySlice := make(map[int64]*Fig6Slice)
	for _, e := range entries {
		if !e.IsRequest() {
			continue
		}
		k := e.Timestamp.UnixNano() / int64(slice)
		s, ok := bySlice[k]
		if !ok {
			s = &Fig6Slice{Start: time.Unix(0, k*int64(slice)).UTC()}
			bySlice[k] = s
		}
		switch {
		case megagateIDs[e.NodeID]:
			s.Megagate++
			s.AllGateway++
		case gatewayIDs[e.NodeID]:
			s.AllGateway++
		default:
			s.NonGateway++
		}
	}
	out := &Fig6{SliceSize: slice}
	secs := slice.Seconds()
	for _, s := range bySlice {
		s.AllGateway /= secs
		s.Megagate /= secs
		s.NonGateway /= secs
		out.Slices = append(out.Slices, *s)
	}
	out.sortSlices()
	return out
}

// --- golden equivalence ------------------------------------------------------

// TestGoldenEquivalence proves each ported streaming report byte-identical
// to the legacy batch computation on seeded fixtures: same trace in, same
// rendered bytes out.
func TestGoldenEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := newFixture(t, seed)
		opts := f.opts()

		// Table I consumes the raw trace (duplicates counted).
		want := legacyTable1(f.unified).Render()
		if got := f.run(t, "table1", opts).Render(); got != want {
			t.Errorf("seed %d: table1 diverges\n--- streaming\n%s--- batch\n%s", seed, got, want)
		}
		// Table II, Fig. 4–6 consume the deduplicated view.
		want = legacyTable2(f.dedup, f.geo).Render()
		if got := f.run(t, "table2", opts).Render(); got != want {
			t.Errorf("seed %d: table2 diverges\n--- streaming\n%s--- batch\n%s", seed, got, want)
		}
		want = legacyFig4(f.dedup, time.Hour).Render()
		if got := f.run(t, "fig4", opts).Render(); got != want {
			t.Errorf("seed %d: fig4 diverges\n--- streaming\n%s--- batch\n%s", seed, got, want)
		}
		// Fig. 5's bootstrap is seeded identically on both sides.
		want = legacyFig5(t, f.dedup, 10, rand.New(rand.NewSource(1))).Render()
		if got := f.run(t, "fig5", opts).Render(); got != want {
			t.Errorf("seed %d: fig5 diverges\n--- streaming\n%s--- batch\n%s", seed, got, want)
		}
		want = legacyFig6(f.dedup, f.gatewayIDs, f.megagateIDs, time.Hour).Render()
		if got := f.run(t, "fig6", opts).Render(); got != want {
			t.Errorf("seed %d: fig6 diverges\n--- streaming\n%s--- batch\n%s", seed, got, want)
		}
	}
}

// TestGoldenEquivalenceAcrossInputForms re-runs the driver with the
// fixture's monitor streams arriving from flat trace files and from segment
// stores: the rendered output must match the slice-source pass byte for
// byte — input form must not leak into results.
func TestGoldenEquivalenceAcrossInputForms(t *testing.T) {
	f := newFixture(t, 7)
	opts := f.opts()
	names := []string{"table1", "table2", "fig4", "fig5", "popularity"}

	renderAll := func(sources []ingest.EntrySource) map[string]string {
		drv := NewDriver(true)
		if err := drv.AddByName(names, opts); err != nil {
			t.Fatal(err)
		}
		if err := drv.Run(ingest.NewStreamUnifier(sources...)); err != nil {
			t.Fatal(err)
		}
		results, err := drv.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, nr := range results {
			out[nr.Name] = nr.Result.Render()
		}
		return out
	}

	// Reference pass: in-memory slice sources.
	var sliceSources []ingest.EntrySource
	for _, tr := range f.traces {
		sliceSources = append(sliceSources, ingest.SliceSource(tr))
	}
	want := renderAll(sliceSources)

	// Flat binary trace files.
	dir := t.TempDir()
	var fileSources []ingest.EntrySource
	for i, tr := range f.traces {
		path := filepath.Join(dir, fmt.Sprintf("m%d.trace", i))
		fh, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.NewWriter(fh)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		rf, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rf.Close()
		r, err := trace.NewReader(rf)
		if err != nil {
			t.Fatal(err)
		}
		fileSources = append(fileSources, r)
	}
	if got := renderAll(fileSources); !equalRenders(got, want) {
		t.Errorf("trace-file inputs diverge from slice inputs:\n%s", diffRenders(got, want))
	}

	// Segment-store directories.
	var storeSources []ingest.EntrySource
	for i, tr := range f.traces {
		store, err := ingest.OpenSegmentStore(filepath.Join(dir, fmt.Sprintf("m%d.segments", i)),
			ingest.SegmentOptions{Rotation: 10 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr {
			if err := store.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		it, err := store.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		storeSources = append(storeSources, it)
	}
	if got := renderAll(storeSources); !equalRenders(got, want) {
		t.Errorf("segment-dir inputs diverge from slice inputs:\n%s", diffRenders(got, want))
	}
}

func equalRenders(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func diffRenders(got, want map[string]string) string {
	var sb strings.Builder
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			fmt.Fprintf(&sb, "report %s:\n--- got\n%s--- want\n%s", k, got[k], want[k])
		}
	}
	return sb.String()
}

// --- dedup semantics ---------------------------------------------------------

// TestDedupSemantics pins the per-report dedup declarations: Table I counts
// duplicate requests (the paper computes it from the raw trace) while
// Table II and Fig. 4 consume the deduplicated view — the behaviour the old
// `dedup && report != "table1"` special case encoded, now declared by each
// report via WantsDedup.
func TestDedupSemantics(t *testing.T) {
	f := newFixture(t, 11)
	opts := f.opts()

	rawRequests := 0
	dedupRequests := 0
	for _, e := range f.unified {
		if !e.IsRequest() {
			continue
		}
		rawRequests++
		if !e.IsDuplicate() {
			dedupRequests++
		}
	}
	if rawRequests == dedupRequests {
		t.Fatal("fixture has no duplicate requests")
	}

	tab1 := f.run(t, "table1", opts).(*Table1)
	if tab1.Total != rawRequests {
		t.Errorf("table1 counted %d requests, want raw %d (duplicates included)", tab1.Total, rawRequests)
	}
	tab2 := f.run(t, "table2", opts).(*Table2)
	if tab2.Total+tab2.Unknown != dedupRequests {
		t.Errorf("table2 counted %d requests, want dedup %d", tab2.Total+tab2.Unknown, dedupRequests)
	}
	fig4 := f.run(t, "fig4", opts).(*Fig4)
	fig4Total := 0
	for _, b := range fig4.Buckets {
		fig4Total += b.WantBlock + b.WantHave
	}
	if fig4Total != dedupRequests {
		t.Errorf("fig4 counted %d requests, want dedup %d", fig4Total, dedupRequests)
	}

	// With dedup disabled at the driver, every report sees the raw trace.
	drv := NewDriver(false)
	if err := drv.AddByName([]string{"table2"}, opts); err != nil {
		t.Fatal(err)
	}
	if err := drv.Run(ingest.SliceSource(f.unified)); err != nil {
		t.Fatal(err)
	}
	results, err := drv.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	tab2raw := results.Get("table2").(*Table2)
	if tab2raw.Total+tab2raw.Unknown != rawRequests {
		t.Errorf("dedup=false table2 counted %d requests, want raw %d", tab2raw.Total+tab2raw.Unknown, rawRequests)
	}
}

// --- guards and registry -----------------------------------------------------

func TestTable2NilGeoDB(t *testing.T) {
	_, err := New("table2", Options{})
	if !errors.Is(err, ErrNilGeoDB) {
		t.Fatalf("err = %v, want ErrNilGeoDB", err)
	}
	// The driver path surfaces the same typed error instead of panicking
	// mid-stream.
	drv := NewDriver(true)
	if err := drv.AddByName([]string{"table2"}, Options{}); !errors.Is(err, ErrNilGeoDB) {
		t.Fatalf("driver err = %v, want ErrNilGeoDB", err)
	}
}

func TestFig6NoGatewayIDs(t *testing.T) {
	if _, err := New("fig6", Options{}); !errors.Is(err, ErrNoGatewayIDs) {
		t.Fatalf("err = %v, want ErrNoGatewayIDs", err)
	}
	// An explicitly empty (non-nil) set is a legitimate "no gateways" world.
	if _, err := New("fig6", Options{GatewayIDs: map[simnet.NodeID]bool{}}); err != nil {
		t.Fatalf("empty gateway set rejected: %v", err)
	}
}

// failingReport observes anything and fails to finalize.
type failingReport struct{}

func (failingReport) WantsDedup() bool          { return false }
func (failingReport) Observe(trace.Entry) error { return nil }
func (failingReport) Merge(Report) error        { return nil }
func (failingReport) Finalize() (Result, error) { return nil, errors.New("no result") }

// TestFinalizePartialResults: one failing report must not discard the
// others' completed results — the error is returned alongside them. A
// trace too small for the power-law fit is not such a failure: fig5 records
// the failed fit in its result.
func TestFinalizePartialResults(t *testing.T) {
	drv := NewDriver(true)
	if err := drv.AddByName([]string{"summary", "fig5"}, Options{BootstrapIters: 2}); err != nil {
		t.Fatal(err)
	}
	drv.add("broken", failingReport{})
	e := trace.Entry{Timestamp: t0, Monitor: "us", Type: wire.WantHave, CID: cid.Sum(cid.Raw, []byte("x"))}
	if err := drv.Write(e); err != nil {
		t.Fatal(err)
	}
	results, err := drv.Finalize()
	if err == nil {
		t.Fatal("a report failing to finalize should fail the driver")
	}
	if !strings.Contains(err.Error(), "broken") || strings.Contains(err.Error(), "fig5") {
		t.Errorf("error should name the failing report and only it: %v", err)
	}
	sum := results.Get("summary")
	if sum == nil {
		t.Fatal("summary result discarded by another report's failure")
	}
	if sum.(*SummaryResult).Summary.Entries != 1 {
		t.Errorf("summary result corrupted: %+v", sum)
	}
	if results.Get("broken") != nil {
		t.Error("failed report should have a nil result")
	}

	// One entry is far too small for the fig5 power-law fits.
	fig, ok := results.Get("fig5").(*Fig5)
	if !ok {
		t.Fatalf("fig5 result = %T, want *Fig5", results.Get("fig5"))
	}
	if fig.CIDs != 1 || fig.RRP.Fitted || fig.URP.Fitted || fig.RRP.Err == "" || fig.URP.Err == "" {
		t.Errorf("fig5 on a one-entry trace should record two failed fits: %+v", fig)
	}
	if !strings.Contains(fig.Render(), fig.RRP.Err) {
		t.Errorf("Render does not show the failed fit:\n%s", fig.Render())
	}
	for k := range fig.Metrics() {
		if k != "cids" && k != "urp_share1" {
			t.Errorf("Metrics of an unfitted fig5 has %q", k)
		}
	}
}

// TestDriverEntryCounts: with telemetry on, a Driver counts each report's
// entries as every entry written, less the duplicates withheld from it when
// it wants dedup, across flushes, and times Observe on one write in 1024.
// The fixture is fed three times, so the pass crosses a counter flush.
func TestDriverEntryCounts(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(obs.NewRegistry()) // isolate later tests from reg

	f := newFixture(t, 8)
	drv := NewDriver(true)
	if err := drv.AddByName([]string{"table1", "table2"}, f.opts()); err != nil {
		t.Fatal(err)
	}
	const passes = 3
	for i := 0; i < passes; i++ {
		if err := drv.Run(ingest.SliceSource(f.unified)); err != nil {
			t.Fatal(err)
		}
	}
	n := passes * len(f.unified)
	if n <= counterFlushStride {
		t.Fatalf("%d writes do not cross a counter flush", n)
	}
	if _, err := drv.Finalize(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for report, want := range map[string]int{"table1": n, "table2": passes * len(f.dedup)} {
		if got := snap[`report_entries_observed_total{report="`+report+`"}`]; got != float64(want) {
			t.Errorf("report_entries_observed_total{report=%q} = %v, want %d", report, got, want)
		}
	}
	if got, want := snap[`report_observe_seconds_count{report="table1"}`], float64(n/observeSampleStride); got != want {
		t.Errorf("table1 timed %v Observe calls, want %v", got, want)
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := New("vibes", Options{})
	if !errors.Is(err, ErrUnknownReport) {
		t.Fatalf("err = %v, want ErrUnknownReport", err)
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-report error does not list %q: %v", name, err)
		}
	}
	if names := Names(); !slices.Contains(names, "table1") || slices.Contains(names, "vibes") {
		t.Errorf("Names() = %v, want table1 and no vibes", names)
	}
}

func TestResultsSurface(t *testing.T) {
	f := newFixture(t, 13)
	drv := NewDriver(true)
	if err := drv.AddByName([]string{"summary", "traffic", "online", "popularity", "fig4"}, f.opts()); err != nil {
		t.Fatal(err)
	}
	if err := drv.Run(ingest.SliceSource(f.unified)); err != nil {
		t.Fatal(err)
	}
	results, err := drv.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if results.Get("nope") != nil {
		t.Error("Get returned a result for an unknown name")
	}
	for _, nr := range results {
		if nr.Result.Render() == "" {
			t.Errorf("%s: empty render", nr.Name)
		}
		if len(nr.Result.Metrics()) == 0 {
			t.Errorf("%s: no metrics", nr.Name)
		}
	}
	// The summary over the raw stream must agree with batch Summarize.
	sum := results.Get("summary").(*SummaryResult).Summary
	want := trace.Summarize(f.unified)
	if sum.Entries != want.Entries || sum.Rebroadcasts != want.Rebroadcasts ||
		sum.UniquePeers != want.UniquePeers || sum.UniqueCIDs != want.UniqueCIDs {
		t.Errorf("summary diverges from batch: %+v vs %+v", sum, want)
	}
	// Traffic counters must agree with the dedup view.
	traffic := results.Get("traffic").(*Traffic)
	if traffic.DedupEntries != len(f.dedup) {
		t.Errorf("traffic dedup entries %d, want %d", traffic.DedupEntries, len(f.dedup))
	}
}

// TestPopularityTooSmall: the popularity report degrades to a fit error on
// tiny traces instead of failing the whole driver pass.
func TestPopularityTooSmall(t *testing.T) {
	drv := NewDriver(true)
	if err := drv.AddByName([]string{"popularity"}, Options{}); err != nil {
		t.Fatal(err)
	}
	e := trace.Entry{Timestamp: t0, Monitor: "us", Type: wire.WantHave, CID: cid.Sum(cid.Raw, []byte("x"))}
	if err := drv.Write(e); err != nil {
		t.Fatal(err)
	}
	results, err := drv.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	pop := results.Get("popularity").(*Popularity)
	if pop.RRP.Fitted || pop.RRP.Err == "" {
		t.Errorf("tiny trace should carry a fit error, got %+v", pop)
	}
	if !strings.Contains(pop.Render(), "power-law fit (RRP):") {
		t.Error("render missing fit line")
	}
}

// TestPopularityECDFPointsOnce: an ECDF of more than 12 points renders the
// first point reaching each key quantile, and a point that reaches several
// (here the first holds 93 %) only once.
func TestPopularityECDFPointsOnce(t *testing.T) {
	pts := []popularity.ECDFPoint{{Value: 1, Prob: 0.93}}
	for v := 2; v <= 12; v++ {
		pts = append(pts, popularity.ECDFPoint{Value: float64(v), Prob: 0.93 + 0.005*float64(v-1)})
	}
	pts = append(pts, popularity.ECDFPoint{Value: 13, Prob: 0.995}, popularity.ECDFPoint{Value: 14, Prob: 1})
	got := (&Popularity{scoreDists: scoreDists{RRPECDF: pts}, RRP: FitResult{Err: "too small"}}).Render()
	want := `RRP ECDF:
  P(X <= 1) = 0.9300
  P(X <= 13) = 0.9950
  P(X <= 14) = 1.0000
URP ECDF:
`
	if !strings.Contains(got, want) {
		t.Errorf("render:\n%s\nwant it to contain:\n%s", got, want)
	}
}

func TestLatencyBreakdownNeedsTracer(t *testing.T) {
	if _, err := New("latency_breakdown", Options{}); !errors.Is(err, ErrNoTracer) {
		t.Fatalf("err = %v, want ErrNoTracer", err)
	}
}

func TestLatencyBreakdownFromSpans(t *testing.T) {
	tr := otrace.New(otrace.Config{Sample: 1, Seed: 1})
	rep, err := New("latency_breakdown", Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	vt := func(ns int64) time.Time { return time.Unix(0, ns) }
	// Two traces: a fetch with two bitswap.gets (one dropped by timeout) and
	// a lone request, plus a cross-shard hop with queue-wait excess.
	r1 := tr.Root(1, "request", "gw", vt(0))
	g1 := tr.Start(r1.Ctx(), "bitswap.get", "n1", vt(100))
	g1.End(vt(300)) // 200ns
	g2 := tr.StartKeyed(r1.Ctx(), "bitswap.get", "n1", "other-cid", vt(100))
	g2.EndDropped(vt(900)) // timeout: excluded from the distribution
	tr.RecordHop(&otrace.HopRef{Ctx: r1.Ctx(), Name: "send.want_have", SendNs: 150, QueueNs: 40}, "n2", 250, false)
	r1.End(vt(1000)) // 1000ns
	r2 := tr.Root(2, "request", "gw", vt(0))
	r2.End(vt(500)) // 500ns

	b, err := rep.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	lb, ok := b.(*LatencyBreakdown)
	if !ok {
		t.Fatalf("Finalize returned %T, want *LatencyBreakdown", b)
	}
	if lb.Spans != 5 || lb.Traces != 2 {
		t.Fatalf("spans=%d traces=%d, want 5/2", lb.Spans, lb.Traces)
	}
	stage := func(name string) LatencyStage {
		for _, s := range lb.Stages {
			if s.Stage == name {
				return s
			}
		}
		t.Fatalf("stage %q missing from breakdown", name)
		return LatencyStage{}
	}
	if s := stage("request"); s.Count != 2 || s.MeanNs != 750 || s.MaxNs != 1000 {
		t.Errorf("request stage wrong: %+v", s)
	}
	if s := stage("bitswap.get"); s.Count != 1 || s.Drops != 1 || s.MeanNs != 200 {
		t.Errorf("bitswap.get stage wrong (drops must be excluded): %+v", s)
	}
	if s := stage("send.want_have"); s.Count != 1 || s.MeanNs != 100 {
		t.Errorf("send.want_have stage wrong: %+v", s)
	}
	if s := stage(StageQueueWait); s.Count != 1 || s.MeanNs != 40 {
		t.Errorf("queue-wait stage wrong: %+v", s)
	}
	// Render and Metrics must both work on the panel.
	if out := lb.Render(); !strings.Contains(out, "latency breakdown") || !strings.Contains(out, "bitswap.get") {
		t.Errorf("Render missing expected content:\n%s", out)
	}
	m := lb.Metrics()
	if m["count:request"] != 2 || m["drops:bitswap.get"] != 1 {
		t.Errorf("Metrics wrong: %v", m)
	}
	// The spine must sort before the hop stages regardless of map order.
	var reqIdx, hopIdx int
	for i, s := range lb.Stages {
		if s.Stage == "request" {
			reqIdx = i
		}
		if s.Stage == "send.want_have" {
			hopIdx = i
		}
	}
	if reqIdx >= hopIdx {
		t.Errorf("stage order wrong: request at %d, send.want_have at %d", reqIdx, hopIdx)
	}
}

// TestSharedPopularityCounter: fig5 and popularity read one counter per
// pass, fed by whichever was added first. Each must finalize to the result it
// produces when it is the only report of its driver, in either order and
// beside a summary that numbers CIDs neither of them scores.
func TestSharedPopularityCounter(t *testing.T) {
	f := newFixture(t, 5)
	opts := f.opts()
	alone := make(map[string]Result)
	for _, name := range []string{"fig5", "popularity"} {
		alone[name] = f.run(t, name, opts)
	}
	for _, names := range [][]string{
		{"summary", "fig5", "popularity"},
		{"popularity", "fig5"},
	} {
		drv := NewDriver(true)
		if err := drv.AddByName(names, opts); err != nil {
			t.Fatal(err)
		}
		if drv.pass.counter == nil {
			t.Fatal("driver pass has no shared popularity counter")
		}
		if err := drv.Run(ingest.SliceSource(f.unified)); err != nil {
			t.Fatal(err)
		}
		results, err := drv.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range alone {
			if got := results.Get(name); !reflect.DeepEqual(got, want) {
				t.Errorf("%v: %s differs from its stand-alone run\n--- shared\n%+v\n--- alone\n%+v", names, name, got, want)
			}
		}
	}
}

// TestOnlineTopKExact: online's top K is Compute's RRP ranking of the
// deduplicated stream cut at K — count descending, ties by CID key — for K
// below, at and above the number of requested CIDs, and empty on an empty
// stream. Five heavy hitters stand over a long tail of tied counts. online
// runs beside summary, so the pass's Symbols also numbers CIDs online never
// counts: CIDs only cancelled and CIDs only in duplicate-flagged entries.
func TestOnlineTopKExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hot := []int{4000, 3000, 2000, 1500, 1000}
	var stream []string
	for i, n := range hot {
		for j := 0; j < n; j++ {
			stream = append(stream, fmt.Sprintf("hot%d", i))
		}
	}
	for i := 0; i < 6000; i++ {
		stream = append(stream, fmt.Sprintf("tail%d", rng.Intn(2000)))
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	mk := func(i int, node byte, name string, typ wire.EntryType) trace.Entry {
		var id simnet.NodeID
		id[0] = node
		return trace.Entry{Timestamp: t0.Add(time.Duration(i) * time.Millisecond), Monitor: "us",
			NodeID: id, Type: typ, CID: cid.Sum(cid.DagProtobuf, []byte(name))}
	}
	var entries []trace.Entry
	for i, name := range stream {
		entries = append(entries, mk(i, byte(i%17), name, wire.WantHave))
		if i%100 == 0 {
			entries = append(entries, mk(i, 1, name, wire.Cancel))
			entries = append(entries, mk(i, 2, fmt.Sprintf("cancelled%d", i), wire.Cancel))
			dup := mk(i, 3, fmt.Sprintf("dup%d", i), wire.WantBlock)
			dup.Flags = trace.FlagRebroadcast
			entries = append(entries, dup)
		}
	}

	var want []popularity.CIDCount
	for c, n := range popularity.Compute(trace.Deduplicated(entries)).RRP {
		want = append(want, popularity.CIDCount{CID: c, Count: n})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Count != want[j].Count {
			return want[i].Count > want[j].Count
		}
		return want[i].CID.Key() < want[j].CID.Key()
	})
	for i, n := range hot {
		if want[i].Count != n {
			t.Fatalf("reference rank %d has %d requests, want hot%d's %d", i, want[i].Count, i, n)
		}
	}

	top := func(k int, entries []trace.Entry) ([]popularity.CIDCount, *trace.Symbols) {
		t.Helper()
		drv := NewDriver(true)
		if err := drv.AddByName([]string{"summary", "online"}, Options{TopK: k}); err != nil {
			t.Fatal(err)
		}
		if err := drv.Run(ingest.SliceSource(entries)); err != nil {
			t.Fatal(err)
		}
		results, err := drv.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return results.Get("online").(*Online).TopCIDs, drv.pass.syms
	}
	n := len(want)
	for _, k := range []int{5, n, n + 3} {
		got, syms := top(k, entries)
		if !reflect.DeepEqual(got, want[:min(k, n)]) {
			t.Errorf("k=%d: top K differs from Compute's ranking (%d vs %d CIDs)", k, len(got), min(k, n))
		}
		numbered := 0
		syms.EachCID(func(uint32, cid.CID) { numbered++ })
		if numbered <= n {
			t.Fatalf("the pass numbers %d CIDs, no more than the %d online counts", numbered, n)
		}
	}
	if got, _ := top(5, nil); len(got) != 0 {
		t.Errorf("empty stream: top K = %v", got)
	}
}

// TestOnlineDistinctEqualsSummary: online is summary's and fig4's
// accumulators over its own view. With a dedup driver (online sees only
// unflagged entries, summary every entry) and a raw one:
//   - its entries, requests, per-type counts, First and Last are a
//     Summarizer's fed the driver's view;
//   - its distinct peers and CIDs are summary's over the whole pass: the
//     first entry of a dedup key is never flagged, so both streams hold the
//     same peers and CIDs;
//   - its bucket rows are fig4's, byte for byte.
//
// The inputs are the report fixture, all in one bucket, and a generated
// twelve-hour stream whose every third hour holds only CANCELs, which fig4
// has no bucket for.
func TestOnlineDistinctEqualsSummary(t *testing.T) {
	inputs := map[string][]trace.Entry{
		"fixture":      newFixture(t, 21).unified,
		"cancel-hours": cancelHoursTrace(t, 12),
	}
	for name, unified := range inputs {
		for _, dedup := range []bool{true, false} {
			drv := NewDriver(dedup)
			if err := drv.AddByName([]string{"summary", "online", "fig4"}, Options{Bucket: time.Hour}); err != nil {
				t.Fatal(err)
			}
			if err := drv.Run(ingest.SliceSource(unified)); err != nil {
				t.Fatal(err)
			}
			results, err := drv.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			sum := results.Get("summary").(*SummaryResult).Summary
			online := results.Get("online").(*Online)
			fig := results.Get("fig4").(*Fig4)

			view := unified
			if dedup {
				view = trace.Deduplicated(unified)
				if len(view) == len(unified) {
					t.Fatalf("%s flags no duplicates: the dedup and raw views are one", name)
				}
			}
			want := trace.Summarize(view)
			if online.Entries != want.Entries || online.Requests != want.Requests ||
				!reflect.DeepEqual(online.PerType, want.PerType) ||
				!online.First.Equal(want.First) || !online.Last.Equal(want.Last) {
				t.Errorf("%s dedup=%v: online %d entries (%d requests) %v, %s .. %s; a Summarizer over its view %d (%d) %v, %s .. %s",
					name, dedup, online.Entries, online.Requests, online.PerType, online.First, online.Last,
					want.Entries, want.Requests, want.PerType, want.First, want.Last)
			}

			if online.DistinctPeers != sum.UniquePeers || online.DistinctCIDs != sum.UniqueCIDs {
				t.Errorf("%s dedup=%v: online counts %d peers, %d CIDs; summary %d, %d",
					name, dedup, online.DistinctPeers, online.DistinctCIDs, sum.UniquePeers, sum.UniqueCIDs)
			}
			m := online.Metrics()
			if m["distinct_peers"] != float64(sum.UniquePeers) || m["distinct_cids"] != float64(sum.UniqueCIDs) {
				t.Errorf("%s dedup=%v: online metrics %v, summary %d peers, %d CIDs", name, dedup, m, sum.UniquePeers, sum.UniqueCIDs)
			}
			render := online.Render()
			if want := fmt.Sprintf("distinct peers %d, distinct CIDs %d\n", sum.UniquePeers, sum.UniqueCIDs); !strings.Contains(render, want) {
				t.Errorf("%s dedup=%v: render lacks %q", name, dedup, want)
			}

			rows := render[strings.Index(render, "requests per "):strings.Index(render, "top ")]
			if want := strings.TrimPrefix(fig.Render(), "Fig. 4 — "); rows != want {
				t.Errorf("%s dedup=%v: online's bucket rows are not fig4's\n--- online\n%s--- fig4\n%s", name, dedup, rows, want)
			}
			hours := make(map[int64]bool)
			for _, e := range view {
				hours[e.Timestamp.UnixNano()/int64(time.Hour)] = true
			}
			if name == "cancel-hours" && len(fig.Buckets) >= len(hours) {
				t.Fatalf("dedup=%v: fig4 has a bucket for each of the %d hours: no hour holds only CANCELs", dedup, len(hours))
			}
		}
	}
}

// cancelHoursTrace unifies two monitors' streams over the given hours:
// requests from a few peers for a few CIDs, dense enough for rebroadcasts
// and inter-monitor duplicates, with every third hour holding only CANCELs.
func cancelHoursTrace(t *testing.T, hours int) []trace.Entry {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var us, de []trace.Entry
	for h := 0; h < hours; h++ {
		end := t0.Add(time.Duration(h+1) * time.Hour)
		for at := end.Add(-time.Hour); at.Before(end); at = at.Add(time.Duration(1+rng.Intn(8)) * time.Second) {
			var node simnet.NodeID
			node[0] = byte(rng.Intn(6))
			typ := []wire.EntryType{wire.WantHave, wire.WantBlock}[rng.Intn(2)]
			if h%3 == 2 {
				typ = wire.Cancel
			}
			e := trace.Entry{Timestamp: at, Monitor: "us", NodeID: node, Type: typ,
				CID: cid.Sum(cid.DagProtobuf, []byte{byte(rng.Intn(8))})}
			if rng.Intn(5) < 3 {
				us = append(us, e)
			}
			if rng.Intn(5) < 3 {
				e.Monitor = "de"
				e.Timestamp = at.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
				de = append(de, e)
			}
		}
	}
	return trace.Unify(us, de)
}
