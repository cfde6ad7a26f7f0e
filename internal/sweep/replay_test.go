package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
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
			WorkloadSource: &WorkloadSourceSpec{
				Mode:     "fitted",
				Inputs:   []string{storePath},
				TimeWarp: 4,
			},
		},
		Axes:  []Axis{{Param: "amplify", Values: []any{1.0, 3.0}}},
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
		WorkloadSource: &WorkloadSourceSpec{
			Mode:     "replay",
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
