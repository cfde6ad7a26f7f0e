package replay

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

var t0 = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// syntheticTrace builds a deterministic two-monitor recorded trace: a
// population of requesters issuing wants (with occasional repeats and
// CANCELs) over span, each entry recorded at one or both monitors.
func syntheticTrace(seed int64, entries int, span time.Duration) map[string][]trace.Entry {
	rng := rand.New(rand.NewSource(seed))
	monitors := []string{"de", "us"}
	out := make(map[string][]trace.Entry)
	requesters := make([]simnet.NodeID, 20)
	for i := range requesters {
		requesters[i] = simnet.DeriveNodeID([]byte(fmt.Sprintf("orig-req-%d", i)))
	}
	cids := make([]cid.CID, 50)
	for i := range cids {
		cids[i] = cid.Sum(cid.Raw, []byte(fmt.Sprintf("item-%d", i)))
	}
	for i := 0; i < entries; i++ {
		at := t0.Add(time.Duration(float64(span) * float64(i) / float64(entries)))
		req := requesters[rng.Intn(len(requesters))]
		// Zipf-ish popularity so power-law fits have a tail to work with.
		c := cids[int(float64(len(cids))*rng.Float64()*rng.Float64())]
		typ := wire.WantHave
		switch {
		case rng.Float64() < 0.2:
			typ = wire.WantBlock
		case rng.Float64() < 0.05:
			typ = wire.Cancel
		}
		for m, name := range monitors {
			if m == 0 || rng.Float64() < 0.5 { // "de" sees all, "us" half
				out[name] = append(out[name], trace.Entry{
					Timestamp: at,
					Monitor:   name,
					NodeID:    req,
					Addr:      "3.0.0.1:4001",
					Type:      typ,
					CID:       c,
				})
			}
		}
	}
	return out
}

// writeStores persists a synthetic trace as per-monitor segment stores and
// returns their paths.
func writeStores(t *testing.T, dir string, traces map[string][]trace.Entry) []string {
	t.Helper()
	var paths []string
	for name, entries := range traces {
		path := filepath.Join(dir, name+".segments")
		store, err := ingest.OpenSegmentStore(path, ingest.SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := store.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// monitorAggregates reduces one monitor trace to the quantities direct
// replay must preserve exactly: entry count, request count, and the CID
// request multiset.
type aggregates struct {
	entries  int
	requests int
	perCID   map[cid.CID]int
}

func aggregate(entries []trace.Entry) aggregates {
	a := aggregates{perCID: make(map[cid.CID]int)}
	for _, e := range entries {
		a.entries++
		if e.IsRequest() {
			a.requests++
			a.perCID[e.CID]++
		}
	}
	return a
}

// record points every monitor of sess at a memory sink of its own, by
// monitor name.
func record(sess *Session) map[string]*ingest.MemorySink {
	mems := make(map[string]*ingest.MemorySink, len(sess.World.Monitors))
	for _, m := range sess.World.Monitors {
		mems[m.Name] = ingest.NewMemorySink()
		m.SetSink(mems[m.Name])
	}
	return mems
}

func topK(perCID map[cid.CID]int, k int) map[cid.CID]bool {
	type cc struct {
		c cid.CID
		n int
	}
	var all []cc
	for c, n := range perCID {
		all = append(all, cc{c, n})
	}
	for i := range all { // selection sort: tiny k, test-only
		for j := i + 1; j < len(all); j++ {
			if all[j].n > all[i].n || (all[j].n == all[i].n && all[j].c.Key() < all[i].c.Key()) {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	if k > len(all) {
		k = len(all)
	}
	out := make(map[cid.CID]bool, k)
	for _, x := range all[:k] {
		out[x.c] = true
	}
	return out
}

// TestDirectReplayRoundTrip is the acceptance path: a recorded trace,
// direct-replayed at 1×, reproduces each monitor's entry counts, request
// counts and per-CID request multiset exactly.
func TestDirectReplayRoundTrip(t *testing.T) {
	traces := syntheticTrace(1, 400, 3*time.Minute)
	paths := writeStores(t, t.TempDir(), traces)

	sess, err := Prepare(Spec{Mode: ModeDirect, Inputs: paths, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	mems := record(sess)
	stats, err := sess.Drive()
	if err != nil {
		t.Fatal(err)
	}
	totalRecorded := 0
	for _, entries := range traces {
		totalRecorded += len(entries)
	}
	if stats.Events != totalRecorded {
		t.Fatalf("replayed %d events, recorded %d", stats.Events, totalRecorded)
	}
	if stats.Requesters != 20 {
		t.Errorf("mapped %d requesters, want 20", stats.Requesters)
	}
	for _, m := range sess.World.Monitors {
		want := aggregate(traces[m.Name])
		got := aggregate(mems[m.Name].Snapshot())
		if got.entries != want.entries || got.requests != want.requests {
			t.Errorf("monitor %s: %d entries / %d requests, want %d / %d",
				m.Name, got.entries, got.requests, want.entries, want.requests)
		}
		if len(got.perCID) != len(want.perCID) {
			t.Errorf("monitor %s: %d distinct CIDs, want %d", m.Name, len(got.perCID), len(want.perCID))
		}
		for c, n := range want.perCID {
			if got.perCID[c] != n {
				t.Errorf("monitor %s: CID %s count %d, want %d", m.Name, c, got.perCID[c], n)
			}
		}
		wantTop := topK(want.perCID, 10)
		gotTop := topK(got.perCID, 10)
		for c := range wantTop {
			if !gotTop[c] {
				t.Errorf("monitor %s: top-10 CID %s missing after replay", m.Name, c)
			}
		}
	}
}

// TestDirectReplayTimeWarp: warping compresses the replayed span without
// changing what is replayed.
func TestDirectReplayTimeWarp(t *testing.T) {
	traces := syntheticTrace(2, 200, 4*time.Minute)
	paths := writeStores(t, t.TempDir(), traces)
	sess, err := Prepare(Spec{Mode: ModeDirect, Inputs: paths, TimeWarp: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	mems := record(sess)
	stats, err := sess.Drive()
	if err != nil {
		t.Fatal(err)
	}
	// 4 minutes warped 4× ≈ 1 minute plus the drain grace.
	if stats.VirtualDuration > 2*time.Minute+graceFor {
		t.Errorf("warped replay took %v of virtual time", stats.VirtualDuration)
	}
	got := aggregate(mems["de"].Snapshot())
	want := aggregate(traces["de"])
	if got.entries != want.entries {
		t.Errorf("warped replay recorded %d entries, want %d", got.entries, want.entries)
	}
}

// unifiedCSV replays the trace and renders the unified monitor-side output
// as CSV bytes, with timestamps rebased to offsets so the byte comparison is
// about content and order.
func unifiedCSV(t *testing.T, paths []string, seed int64) []byte {
	t.Helper()
	sess, err := Prepare(Spec{Mode: ModeDirect, Inputs: paths, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	mems := record(sess)
	if _, err := sess.Drive(); err != nil {
		t.Fatal(err)
	}
	var sources []ingest.EntrySource
	for _, m := range sess.World.Monitors {
		sources = append(sources, ingest.SliceSource(mems[m.Name].Snapshot()))
	}
	u := ingest.NewStreamUnifier(sources...)
	var buf bytes.Buffer
	cw := trace.NewCSVWriter(&buf)
	for {
		e, err := u.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayDeterminismSerial: same trace + seed ⇒ byte-identical unified
// output CSV on the serial engine.
func TestReplayDeterminismSerial(t *testing.T) {
	traces := syntheticTrace(3, 300, 2*time.Minute)
	paths := writeStores(t, t.TempDir(), traces)
	a := unifiedCSV(t, paths, 42)
	b := unifiedCSV(t, paths, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("serial replay produced different unified CSV bytes across runs")
	}
}

// TestTracingLeavesReplayUnchanged: a tracer changes no monitor entry of a
// direct or a fitted replay. Each sampled event records one request root
// with one send hop per monitor message, and every trace nests. Sample 0 is
// the untraced run itself, driven twice.
func TestTracingLeavesReplayUnchanged(t *testing.T) {
	paths := writeStores(t, t.TempDir(), syntheticTrace(9, 300, 2*time.Minute))
	for _, mode := range []Mode{ModeDirect, ModeFitted} {
		drive := func(tr *otrace.Tracer) (*DriveStats, [][]trace.Entry) {
			t.Helper()
			sess, err := Prepare(Spec{Mode: mode, Inputs: paths, TimeWarp: 4, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sess.World.Net.SetTracer(tr)
			mems := record(sess)
			stats, err := sess.Drive()
			if err != nil {
				t.Fatal(err)
			}
			var entries [][]trace.Entry
			for _, m := range sess.World.Monitors {
				entries = append(entries, mems[m.Name].Snapshot())
			}
			return stats, entries
		}
		_, want := drive(nil)
		for _, sample := range []float64{0, 0.5, 1} {
			var tr *otrace.Tracer
			if sample > 0 {
				tr = otrace.New(otrace.Config{Sample: sample, Seed: 3})
			}
			stats, got := drive(tr)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s sample %v: monitor entries differ from the untraced run", mode, sample)
			}
			// Direct replay sends each event to its recording monitor;
			// fitted replay broadcasts it to both monitors (monitor_frac 1).
			perEvent := 1
			if mode == ModeFitted {
				perEvent = 2
			}
			roots, hops := 0, 0
			for _, tree := range otrace.BuildTrees(tr.Spans()) {
				if err := tree.CheckNesting(); err != nil {
					t.Errorf("%s sample %v: %v", mode, sample, err)
				}
				treeHops := 0
				for _, sp := range tree.Spans {
					if sp.Name == "request" {
						roots++
						continue
					}
					if p, ok := tree.Parent(sp); !ok || p.Name != "request" || !strings.HasPrefix(sp.Name, "send.") {
						t.Errorf("%s sample %v: span %s is not a send hop under a request root", mode, sample, sp.Name)
					}
					treeHops++
				}
				if treeHops != perEvent {
					t.Errorf("%s sample %v: trace %016x has %d send hops, want %d", mode, sample, tree.Trace, treeHops, perEvent)
				}
				hops += treeHops
			}
			switch {
			case sample == 0 && roots != 0:
				t.Errorf("%s untraced run recorded %d roots", mode, roots)
			case sample == 1 && (roots != stats.Events || hops != stats.Sends):
				t.Errorf("%s sample 1: %d roots and %d hops, want %d events and %d sends", mode, roots, hops, stats.Events, stats.Sends)
			case sample == 0.5 && (roots == 0 || roots == stats.Events):
				t.Errorf("%s sample 0.5: %d of %d events sampled", mode, roots, stats.Events)
			}
		}
	}
}

// TestPoolSmallerThanRequesters: mapping collisions coarsen attribution but
// never lose entries.
func TestPoolSmallerThanRequesters(t *testing.T) {
	traces := syntheticTrace(5, 200, time.Minute)
	paths := writeStores(t, t.TempDir(), traces)
	sess, err := Prepare(Spec{Mode: ModeDirect, Inputs: paths, Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	mems := record(sess)
	stats, err := sess.Drive()
	if err != nil {
		t.Fatal(err)
	}
	if sess.World.PoolSize() != 4 {
		t.Fatalf("pool size %d", sess.World.PoolSize())
	}
	total := 0
	for _, entries := range traces {
		total += len(entries)
	}
	if stats.Events != total {
		t.Errorf("replayed %d events, want %d", stats.Events, total)
	}
	got := aggregate(mems["de"].Snapshot())
	if got.entries != len(traces["de"]) {
		t.Errorf("monitor de recorded %d entries, want %d", got.entries, len(traces["de"]))
	}
}

// TestDiscoverMonitors covers store-footer and flat-file discovery.
func TestDiscoverMonitors(t *testing.T) {
	traces := syntheticTrace(6, 50, time.Minute)
	dir := t.TempDir()
	paths := writeStores(t, dir, traces)
	specs, err := DiscoverMonitors(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "de" || specs[1].Name != "us" {
		t.Fatalf("discovered %+v", specs)
	}
	if specs[0].Region != simnet.RegionDE || specs[1].Region != simnet.RegionUS {
		t.Errorf("regions %+v", specs)
	}
	// Flat-file discovery takes a streaming pass.
	flat := filepath.Join(dir, "flat.trace")
	f := mustCreate(t, flat)
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range traces["us"] {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	specs, err = DiscoverMonitors([]string{flat})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "us" {
		t.Fatalf("flat discovery: %+v", specs)
	}
}

// TestDriveUnknownMonitor: direct replay against a world missing the
// trace's monitor fails loudly instead of silently dropping traffic.
func TestDriveUnknownMonitor(t *testing.T) {
	traces := syntheticTrace(8, 20, time.Minute)
	paths := writeStores(t, t.TempDir(), traces)
	sess, err := Prepare(Spec{
		Mode:     ModeDirect,
		Inputs:   paths,
		Monitors: []monitor.Spec{{Name: "only-this-one", Region: simnet.RegionUS}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Drive(); err == nil {
		t.Fatal("expected unknown-monitor error")
	}
}

// TestSessionCloseStopsReadAhead: direct replay merges its inputs a batch
// ahead of the drive, on a goroutine of its own. Close stops that goroutine
// and then closes the stores' readers, whether or not the session was
// driven, and leaves no goroutine behind. Under -race, a Close that closed
// the readers first would also race with the goroutine's last reads.
func TestSessionCloseStopsReadAhead(t *testing.T) {
	// More entries than the read-ahead holds, so that an undriven session
	// is closed with the goroutine waiting mid-stream.
	traces := syntheticTrace(9, 3000, 10*time.Minute)
	paths := writeStores(t, t.TempDir(), traces)
	for _, drive := range []bool{false, true} {
		base := runtime.NumGoroutine()
		sess, err := Prepare(Spec{Mode: ModeDirect, Inputs: paths, Nodes: 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if drive {
			record(sess)
			stats, err := sess.Drive()
			if err != nil {
				t.Fatal(err)
			}
			if want := len(traces["de"]) + len(traces["us"]); stats.Events != want {
				t.Fatalf("replayed %d events, recorded %d", stats.Events, want)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		// A goroutine that has signalled its exit may take a moment to
		// leave the count; yield to it rather than read the host clock.
		for i := 0; runtime.NumGoroutine() > base; i++ {
			if i == 100000 {
				t.Fatalf("driven=%v: %d goroutines after Close, %d before Prepare", drive, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
}

func mustCreate(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
