package sweep

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
	"bitswapmon/internal/workload"
)

// writeReplayStore persists a small deterministic single-monitor trace and
// returns the store path.
func writeReplayStore(t *testing.T, dir string) string {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	base := time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
	path := filepath.Join(dir, "us.segments")
	store, err := ingest.OpenSegmentStore(path, ingest.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		e := trace.Entry{
			Timestamp: base.Add(time.Duration(i) * 400 * time.Millisecond),
			Monitor:   "us",
			NodeID:    simnet.DeriveNodeID([]byte{byte(rng.Intn(12))}),
			Addr:      "3.0.0.1:4001",
			Type:      wire.WantHave,
			CID:       cid.Sum(cid.Raw, []byte(fmt.Sprintf("it-%d", rng.Intn(30)))),
		}
		if err := store.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSweepReplayWorkloadSource: a campaign can sweep fitted-replay
// amplification like any other axis, with per-run stores and summaries.
func TestSweepReplayWorkloadSource(t *testing.T) {
	storePath := writeReplayStore(t, t.TempDir())
	sw := SweepSpec{
		Version: SpecVersion,
		Name:    "replay-amplify",
		Base: ScenarioSpec{
			Version: SpecVersion,
			Name:    "fitted-base",
			WorkloadSource: &replay.Spec{
				Mode:     replay.ModeFitted,
				Inputs:   []string{storePath},
				TimeWarp: 4,
			},
		},
		Axes:  []Axis{{Param: "workload_source.amplify", Values: []any{1.0, 3.0}}},
		Seeds: SeedPolicy{Base: 7},
	}
	root := t.TempDir()
	res, err := RunSweep(context.Background(), root, sw, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 2 || res.Executed != 2 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	var events [2]float64
	for i, sum := range res.Summaries {
		m := sum.Metrics
		if m["replay_events"] <= 0 || m["replay_requesters"] <= 0 {
			t.Fatalf("run %s: no replay counters: %+v", sum.RunID, sum)
		}
		if m["entries"] != m["replay_events"] {
			t.Errorf("run %s: %v recorded entries vs %v replayed events", sum.RunID, m["entries"], m["replay_events"])
		}
		if len(sum.MonitorCoverage) != 1 {
			t.Errorf("run %s: coverage %+v", sum.RunID, sum.MonitorCoverage)
		}
		if _, err := os.Stat(filepath.Join(RunDir(root, sum.RunID), "mon-us.segments")); err != nil {
			t.Errorf("run %s: missing monitor store: %v", sum.RunID, err)
		}
		events[i] = m["replay_events"]
	}
	// Summaries sort by run ID: amplify=1 before amplify=3.
	if !(events[1] > 2*events[0]) {
		t.Errorf("amplify=3 drove %v events vs %v at 1×, want ≈3×", events[1], events[0])
	}

	// The amplify axis must not leak between grid points through a shared
	// base struct: the pinned sweep spec's base stays amplification-free.
	pinned, err := LoadRoot(root)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Base.WorkloadSource.Amplify != 0 {
		t.Errorf("base spec mutated by axis application: %+v", pinned.Base.WorkloadSource)
	}
}

// TestSweepDirectReplayRun: a direct-replay run reproduces the recorded
// entry count in its summary.
func TestSweepDirectReplayRun(t *testing.T) {
	storePath := writeReplayStore(t, t.TempDir())
	spec := ScenarioSpec{
		Version: SpecVersion,
		WorkloadSource: &replay.Spec{
			Mode:     replay.ModeDirect,
			Inputs:   []string{storePath},
			TimeWarp: 4,
		},
	}
	dir := filepath.Join(t.TempDir(), "run")
	sum, err := ExecuteRun(dir, Run{ID: "direct", Seed: 3, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryWithout(t, dir, "elapsed_ms"); got != pinnedReplaySummary {
		t.Errorf("summary.json moved:\n%s\nwant:\n%s", got, pinnedReplaySummary)
	}
	if m := sum.Metrics; m["entries"] != 300 || m["replay_events"] != 300 {
		t.Fatalf("direct replay recorded %v entries / %v events, want 300", m["entries"], m["replay_events"])
	}
	if v := sum.Metrics["replay_requesters"]; v != 12 {
		t.Errorf("requesters %v, want 12", v)
	}
}

// recordRun simulates a small monitored world and persists each monitor's
// trace as a segment store, returning the store paths and the original
// per-monitor traces.
func recordRun(t *testing.T, dir string, seed int64, hours int) ([]string, map[string][]trace.Entry) {
	t.Helper()
	w, err := workload.Build(workload.Config{
		Seed:  seed,
		Nodes: 100,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		Gateways:            []workload.OperatorSpec{},
		CatalogItems:        400,
		MeanRequestsPerHour: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	mems := make([]*ingest.MemorySink, len(w.Monitors))
	for i, m := range w.Monitors {
		mems[i] = ingest.NewMemorySink()
		m.SetSink(mems[i])
	}
	w.Run(time.Duration(hours) * time.Hour)
	var paths []string
	traces := make(map[string][]trace.Entry)
	for i, m := range w.Monitors {
		entries := mems[i].Snapshot()
		if len(entries) == 0 {
			t.Fatalf("monitor %s recorded nothing", m.Name)
		}
		traces[m.Name] = entries
		path := filepath.Join(dir, m.Name+".segments")
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
	sort.Strings(paths)
	return paths, traces
}

// requestAggregates reduces a monitor trace to request count and per-CID
// request counts.
func requestAggregates(entries []trace.Entry) (int, map[cid.CID]int) {
	perCID := make(map[cid.CID]int)
	n := 0
	for _, e := range entries {
		if e.IsRequest() {
			n++
			perCID[e.CID]++
		}
	}
	return n, perCID
}

// topCIDSet returns the k most-requested CIDs with a deterministic
// tie-break, as a set.
func topCIDSet(perCID map[cid.CID]int, k int) map[cid.CID]bool {
	type cc struct {
		c cid.CID
		n int
	}
	all := make([]cc, 0, len(perCID))
	for c, n := range perCID {
		all = append(all, cc{c, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].c.Key() < all[j].c.Key()
	})
	if k > len(all) {
		k = len(all)
	}
	out := make(map[cid.CID]bool, k)
	for _, x := range all[:k] {
		out[x.c] = true
	}
	return out
}

// TestReplayRoundTripFromSimulation is the acceptance path end to end:
// simulate a monitored world, record its traces, direct-replay them, and
// require per-monitor request counts and top-K CID sets to match the
// original run exactly.
func TestReplayRoundTripFromSimulation(t *testing.T) {
	paths, traces := recordRun(t, t.TempDir(), 21, 3)

	spec := ScenarioSpec{
		Version: SpecVersion,
		WorkloadSource: &replay.Spec{
			Mode:     replay.ModeDirect,
			Inputs:   paths,
			TimeWarp: 8, // warp only compresses time; counts must be invariant
		},
	}
	mems := make(map[string]*ingest.MemorySink)
	meas, err := MeasureReplay(spec, 5, func(w *replay.World) error {
		for _, m := range w.Monitors {
			mems[m.Name] = ingest.NewMemorySink()
			m.SetSink(mems[m.Name])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range meas.World.Monitors {
		wantReqs, wantPerCID := requestAggregates(traces[m.Name])
		gotReqs, gotPerCID := requestAggregates(mems[m.Name].Snapshot())
		if gotReqs != wantReqs {
			t.Errorf("monitor %s: %d replayed requests, want %d", m.Name, gotReqs, wantReqs)
		}
		if len(gotPerCID) != len(wantPerCID) {
			t.Errorf("monitor %s: %d distinct CIDs, want %d", m.Name, len(gotPerCID), len(wantPerCID))
		}
		for c, n := range wantPerCID {
			if gotPerCID[c] != n {
				t.Errorf("monitor %s: CID %s replayed %d times, want %d", m.Name, c, gotPerCID[c], n)
			}
		}
		wantTop := topCIDSet(wantPerCID, 10)
		gotTop := topCIDSet(gotPerCID, 10)
		for c := range wantTop {
			if !gotTop[c] {
				t.Errorf("monitor %s: top-10 CID %s lost in replay", m.Name, c)
			}
		}
	}
}

// TestReplayFittedAmplified: fitted replay at 10× scales the volume and
// keeps the fitted popularity's concentration.
func TestReplayFittedAmplified(t *testing.T) {
	paths, _ := recordRun(t, t.TempDir(), 22, 3)

	spec := ScenarioSpec{
		Version: SpecVersion,
		Name:    "fitted-10x",
		WorkloadSource: &replay.Spec{
			Mode:     replay.ModeFitted,
			Inputs:   paths,
			Amplify:  10,
			TimeWarp: 8,
		},
	}
	out := ingest.NewMemorySink()
	uni := ingest.NewUnifySink(out)
	meas, err := MeasureReplay(spec, 9, func(w *replay.World) error {
		w.SetSinks(func(string) ingest.Sink { return uni })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := uni.Flush(); err != nil {
		t.Fatal(err)
	}
	m := meas.Model
	if m == nil || m.Requests == 0 {
		t.Fatal("fitted replay carries no model")
	}
	want := 10 * m.Requests
	if meas.Drive.Events < want/2 || meas.Drive.Events > 2*want {
		t.Errorf("amplified replay drove %d events, want ≈ %d", meas.Drive.Events, want)
	}
	if meas.Drive.Requesters != 10*m.Requesters {
		t.Errorf("amplified population %d, want %d", meas.Drive.Requesters, 10*m.Requesters)
	}
	// The simulator's popularity is a lognormal mixture (the paper rejects
	// the power-law hypothesis), so alpha is not scale-stable here — the
	// power-law alpha-preservation check lives in internal/replay's
	// TestFittedAmplifyPreservesAlpha over a genuine power-law trace. What
	// must hold for any shape is the scale-invariant concentration: the
	// model's top-10 CIDs keep their share of the deduplicated requests
	// through 10×.
	top := make(map[cid.CID]bool)
	modelTop := 0
	for _, cc := range m.Popularity[:min(10, len(m.Popularity))] {
		top[cc.CID] = true
		modelTop += cc.Count
	}
	replayedTop, replayed := 0, 0
	for _, e := range out.Snapshot() {
		if e.IsRequest() && !e.IsDuplicate() {
			replayed++
			if top[e.CID] {
				replayedTop++
			}
		}
	}
	if replayed == 0 {
		t.Fatal("replay recorded no deduplicated requests")
	}
	modelShare := float64(modelTop) / float64(m.Requests)
	replayShare := float64(replayedTop) / float64(replayed)
	if diff := math.Abs(replayShare - modelShare); diff > 0.05 {
		t.Errorf("top-10 share drifted: model %.3f vs replayed %.3f", modelShare, replayShare)
	}
}

// TestScenarioSpecReplayRoundTrip: workload_source specs survive the
// marshal/parse cycle and reject bad configurations.
func TestScenarioSpecReplayRoundTrip(t *testing.T) {
	spec := ScenarioSpec{
		Version: SpecVersion,
		WorkloadSource: &replay.Spec{
			Mode:     replay.ModeDirect,
			Inputs:   []string{"a.segments", "b.trace"},
			TimeWarp: 2,
		},
	}
	blob, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseSpec(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.WorkloadSource == nil || back.WorkloadSource.Mode != "replay" ||
		len(back.WorkloadSource.Inputs) != 2 || back.WorkloadSource.TimeWarp != 2 {
		t.Fatalf("round-trip lost workload_source: %+v", back.WorkloadSource)
	}
	for _, bad := range []replay.Spec{
		{Mode: "nope"},
		{Mode: "replay"}, // no inputs
		{Mode: "replay", Inputs: []string{"x"}, Amplify: 2},     // amplify needs fitted
		{Mode: "synthetic", TimeWarp: 2},                        // warp needs replay
		{Mode: "fitted", Inputs: []string{"x"}, MonitorFrac: 2}, // out of range
	} {
		s := ScenarioSpec{Version: SpecVersion, Window: D(time.Hour), WorkloadSource: &bad}
		if err := s.Validate(); err == nil {
			t.Errorf("%+v validated", bad)
		}
	}
}
