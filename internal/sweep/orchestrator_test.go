package sweep

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitswapmon/internal/monitor"
	"bitswapmon/internal/workload"
)

// tinySweep is a 3×2 grid with 2 seed replicates (12 runs) small enough
// for the race detector: the acceptance-criteria shape at test scale.
func tinySweep() SweepSpec {
	// Dense traffic and near-total monitor connectivity keep every run's
	// every monitor non-empty even at these tiny populations.
	base := ScenarioSpec{
		Version: SpecVersion,
		Name:    "tiny",
		Config: workload.Config{
			Nodes:            20,
			BootstrapServers: 5,
			CatalogItems:     80,
			ActiveFrac:       0.9,
			Monitors: []monitor.Spec{
				{Name: "us", Region: "US"},
				{Name: "de", Region: "DE"},
			},
			Joint:               &workload.JointConnectivity{Both: 0.8, OnlyA: 0.1, OnlyB: 0.1},
			Gateways:            []workload.OperatorSpec{},
			MeanRequestsPerHour: 60,
		},
		Warmup:      D(5 * time.Minute),
		Window:      D(30 * time.Minute),
		SampleEvery: D(10 * time.Minute),
	}
	return SweepSpec{
		Version: SpecVersion,
		Name:    "tiny-grid",
		Base:    base,
		Axes: []Axis{
			{Param: "nodes", Values: []any{16.0, 24.0, 32.0}},
			{Param: "mean_session", Values: []any{"2h", "8h"}},
		},
		Seeds: SeedPolicy{Base: 42, Replicates: 2},
	}
}

func TestOrchestratorRunsGrid(t *testing.T) {
	root := t.TempDir()
	res, err := RunSweep(context.Background(), root, tinySweep(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 12 || res.Executed != 12 || res.Skipped != 0 || res.Failed != 0 {
		t.Fatalf("result = %+v, want 12 executed", res)
	}
	if len(res.Summaries) != 12 {
		t.Fatalf("got %d summaries", len(res.Summaries))
	}
	for _, sum := range res.Summaries {
		if sum.Metrics["entries"] <= 0 {
			t.Errorf("run %s recorded no entries", sum.RunID)
		}
		if sum.Metrics["population"] < 16+5 {
			t.Errorf("run %s population %v implausible", sum.RunID, sum.Metrics["population"])
		}
		dir := RunDir(root, sum.RunID)
		for _, mon := range []string{"us", "de"} {
			segs, err := filepath.Glob(filepath.Join(monitorStoreDir(dir, mon), "*.seg"))
			if err != nil || len(segs) == 0 {
				t.Errorf("run %s: no durable segments for monitor %s", sum.RunID, mon)
			}
		}
		onDisk, err := ReadSummary(filepath.Join(dir, summaryFile))
		if err != nil {
			t.Errorf("run %s: %v", sum.RunID, err)
		} else if !reflect.DeepEqual(onDisk.Metrics, sum.Metrics) {
			t.Errorf("run %s: persisted summary disagrees with returned one", sum.RunID)
		}
	}

	// Re-loading through the manifest (the report path) sees every run.
	sums, err := LoadSummaries(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 12 {
		t.Errorf("LoadSummaries found %d runs, want 12", len(sums))
	}
}

// TestOrchestratorDeterministic runs the same sweep into two fresh roots
// and demands identical summaries — the property that makes cross-root
// aggregate CSVs byte-identical.
func TestOrchestratorDeterministic(t *testing.T) {
	sw := tinySweep()
	a, err := RunSweep(context.Background(), t.TempDir(), sw, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(context.Background(), t.TempDir(), sw, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Summaries) != len(b.Summaries) {
		t.Fatalf("summary counts differ: %d vs %d", len(a.Summaries), len(b.Summaries))
	}
	for i := range a.Summaries {
		x, y := *a.Summaries[i], *b.Summaries[i]
		// Wall clock is the one legitimately nondeterministic field.
		x.ElapsedMS, y.ElapsedMS = 0, 0
		if x.RunID != y.RunID || !reflect.DeepEqual(x.Metrics, y.Metrics) {
			t.Errorf("run %s differs across invocations:\n%+v\n%+v", x.RunID, x, y)
		}
	}
}

// TestOrchestratorResume interrupts a sweep after two completed runs and
// verifies the next invocation picks up without re-executing them.
func TestOrchestratorResume(t *testing.T) {
	root := t.TempDir()
	sw := tinySweep()

	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int32
	res, err := RunSweep(ctx, root, sw, Options{
		Workers: 1,
		AfterRun: func(string) {
			if completed.Add(1) == 2 {
				cancel()
			}
		},
	})
	cancel()
	if err == nil {
		t.Fatal("interrupted sweep reported no error")
	}
	if res.Executed < 2 || res.Executed >= res.Total {
		t.Fatalf("interrupted invocation executed %d of %d runs", res.Executed, res.Total)
	}
	firstPass := res.Executed

	res2, err := RunSweep(context.Background(), root, sw, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Skipped != firstPass {
		t.Errorf("second invocation skipped %d runs, want %d", res2.Skipped, firstPass)
	}
	if res2.Executed != res2.Total-firstPass {
		t.Errorf("second invocation executed %d runs, want %d", res2.Executed, res2.Total-firstPass)
	}
	if len(res2.Summaries) != res2.Total {
		t.Errorf("second invocation gathered %d summaries, want %d", len(res2.Summaries), res2.Total)
	}

	// A third invocation is a pure no-op.
	res3, err := RunSweep(context.Background(), root, sw, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Executed != 0 || res3.Skipped != res3.Total {
		t.Errorf("third invocation re-executed runs: %+v", res3)
	}
}

// TestOrchestratorRetriesFailedRuns marks one run as failed in the
// manifest and checks that only it re-executes.
func TestOrchestratorRetriesFailedRuns(t *testing.T) {
	root := t.TempDir()
	sw := tinySweep()
	res, err := RunSweep(context.Background(), root, sw, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	victim := res.Summaries[0].RunID
	man, err := openManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.record(ManifestEntry{RunID: victim, Status: StatusFailed, Error: "injected"}); err != nil {
		t.Fatal(err)
	}
	man.close()

	res2, err := RunSweep(context.Background(), root, sw, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 1 || res2.Skipped != res2.Total-1 {
		t.Errorf("retry invocation = %+v, want exactly the failed run re-executed", res2)
	}
}

func TestOrchestratorRejectsMixedRoots(t *testing.T) {
	root := t.TempDir()
	sw := tinySweep()
	sw.Axes = sw.Axes[:1]
	sw.Seeds.Replicates = 1
	if _, err := RunSweep(context.Background(), root, sw, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	other := sw
	other.Seeds.Base = 7
	if _, err := RunSweep(context.Background(), root, other, Options{Workers: 2}); err == nil {
		t.Error("a different sweep was accepted into an existing root")
	}
}

// TestManifestTornTail simulates a crash mid-append: the torn line's run
// re-executes, everything else resumes.
func TestManifestTornTail(t *testing.T) {
	root := t.TempDir()
	sw := tinySweep()
	sw.Axes = sw.Axes[:1] // 3 points × 2 seeds = 6 runs
	res, err := RunSweep(context.Background(), root, sw, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, manifestFile)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the final line in half.
	if err := os.WriteFile(path, blob[:len(blob)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	res2, err := RunSweep(context.Background(), root, sw, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 1 || res2.Skipped != res.Total-1 {
		t.Errorf("after torn manifest tail: %+v, want exactly one re-execution", res2)
	}
}

// TestExecuteRunCleansRetries ensures a retried run does not inherit a
// failed attempt's half-written segments.
func TestExecuteRunCleansRetries(t *testing.T) {
	runs, err := Expand(SweepSpec{
		Version: SpecVersion,
		Base:    tinySweep().Base,
		Seeds:   SeedPolicy{Base: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	junk := filepath.Join(monitorStoreDir(dir, "us"), "999990.seg")
	if err := os.MkdirAll(filepath.Dir(junk), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(junk, []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteRun(dir, runs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Error("retried run kept a failed attempt's leftover segment")
	}
}

// TestParallelWorkersShareNothing runs the same spec concurrently many
// times; under -race this flushes out any shared mutable state between
// simultaneous simulations.
func TestParallelWorkersShareNothing(t *testing.T) {
	runs, err := Expand(SweepSpec{
		Version: SpecVersion,
		Base:    tinySweep().Base,
		Seeds:   SeedPolicy{Base: 42, Replicates: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	var wg sync.WaitGroup
	sums := make([]*RunSummary, len(runs))
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum, err := ExecuteRun(filepath.Join(base, run.ID), run)
			if err != nil {
				t.Error(err)
				return
			}
			sums[i] = sum
		}()
	}
	wg.Wait()
}
