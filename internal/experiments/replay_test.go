package experiments

import (
	"math"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/workload"
)

// recordRun simulates a small monitored world and persists each monitor's
// trace as a segment store, returning the store paths and the original
// per-monitor traces.
func recordRun(t *testing.T, dir string, seed int64, hours int) ([]string, map[string][]trace.Entry) {
	t.Helper()
	w, err := workload.Build(workload.Config{
		Seed:  seed,
		Nodes: 100,
		Monitors: []workload.MonitorSpec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		Operators:           []workload.OperatorSpec{},
		Catalog:             workload.CatalogConfig{Items: 400},
		MeanRequestsPerHour: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run(time.Duration(hours) * time.Hour)
	var paths []string
	traces := make(map[string][]trace.Entry)
	for _, m := range w.Monitors {
		entries := m.Trace()
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
// simulate a monitored world, record its traces, direct-replay them at 1×,
// and require per-monitor request counts and top-K CID sets to match the
// original run exactly.
func TestReplayRoundTripFromSimulation(t *testing.T) {
	paths, traces := recordRun(t, t.TempDir(), 21, 3)

	sess, err := replay.Prepare(replay.Spec{
		Mode:     replay.ModeDirect,
		Inputs:   paths,
		TimeWarp: 8, // warp only compresses time; counts must be invariant
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Drive(); err != nil {
		t.Fatal(err)
	}
	for _, m := range sess.World.Monitors {
		wantReqs, wantPerCID := requestAggregates(traces[m.Name])
		gotReqs, gotPerCID := requestAggregates(m.Trace())
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

// TestReplayFittedAmplifiedSharded: fitted replay at 10× runs on several
// shards, scales the volume, and preserves the fitted popularity alpha
// within tolerance.
func TestReplayFittedAmplifiedSharded(t *testing.T) {
	paths, _ := recordRun(t, t.TempDir(), 22, 3)

	spec := sweep.ScenarioSpec{
		Version: sweep.SpecVersion,
		Name:    "fitted-10x",
		Engine:  "sharded",
		Shards:  2,
		Seed:    9,
		WorkloadSource: &sweep.WorkloadSourceSpec{
			Mode:     "fitted",
			Inputs:   paths,
			Amplify:  10,
			TimeWarp: 8,
		},
	}
	rep, err := RunReplay(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != replay.ModeFitted || rep.Model == nil {
		t.Fatal("report carries no fitted model")
	}
	m := rep.Model
	want := 10 * m.Requests
	if rep.Stats.Events < want/2 || rep.Stats.Events > 2*want {
		t.Errorf("amplified replay drove %d events, want ≈ %d", rep.Stats.Events, want)
	}
	if rep.Stats.Requesters != 10*m.Requesters {
		t.Errorf("amplified population %d, want %d", rep.Stats.Requesters, 10*m.Requesters)
	}
	// The simulator's popularity is a lognormal mixture (the paper rejects
	// the power-law hypothesis), so alpha is not scale-stable here — the
	// power-law alpha-preservation check lives in internal/replay's
	// TestFittedAmplifyPreservesAlpha over a genuine power-law trace. What
	// must hold for any shape is the scale-invariant concentration: the
	// model's top-10 CIDs keep their request share through 10×.
	if rep.ModelTopShare <= 0 {
		t.Fatal("model top share not computed")
	}
	if diff := math.Abs(rep.ReplayTopShare - rep.ModelTopShare); diff > 0.05 {
		t.Errorf("top-10 share drifted: model %.3f vs replayed %.3f", rep.ModelTopShare, rep.ReplayTopShare)
	}
	if out := rep.Render(); len(out) == 0 {
		t.Error("empty report render")
	}
}

// TestScenarioSpecReplayRoundTrip: workload_source specs survive the
// marshal/parse cycle and reject bad configurations.
func TestScenarioSpecReplayRoundTrip(t *testing.T) {
	spec := sweep.ScenarioSpec{
		Version: sweep.SpecVersion,
		WorkloadSource: &sweep.WorkloadSourceSpec{
			Mode:     "replay",
			Inputs:   []string{"a.segments", "b.trace"},
			TimeWarp: 2,
		},
	}
	blob, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := sweep.ParseSpec(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.WorkloadSource == nil || back.WorkloadSource.Mode != "replay" ||
		len(back.WorkloadSource.Inputs) != 2 || back.WorkloadSource.TimeWarp != 2 {
		t.Fatalf("round-trip lost workload_source: %+v", back.WorkloadSource)
	}
	for _, bad := range []sweep.WorkloadSourceSpec{
		{Mode: "nope"},
		{Mode: "replay"}, // no inputs
		{Mode: "replay", Inputs: []string{"x"}, Amplify: 2},     // amplify needs fitted
		{Mode: "synthetic", TimeWarp: 2},                        // warp needs replay
		{Mode: "fitted", Inputs: []string{"x"}, MonitorFrac: 2}, // out of range
	} {
		bad := bad
		s := sweep.ScenarioSpec{Version: sweep.SpecVersion, Window: sweep.D(time.Hour), WorkloadSource: &bad}
		if err := s.Validate(); err == nil {
			t.Errorf("%+v validated", bad)
		}
	}
}
