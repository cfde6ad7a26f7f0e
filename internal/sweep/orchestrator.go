package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// sweepFile is the persisted sweep spec inside a sweep root; resume reads
// it back so a root is self-describing.
const sweepFile = "sweep.json"

// runsDir holds the per-run directories inside a sweep root.
const runsDir = "runs"

// Options tunes the orchestrator.
type Options struct {
	// Workers bounds concurrent runs (default 4). Each run is an
	// independent simulation — serial-engine runs are single-threaded, so
	// the pool is the parallelism knob for whole campaigns.
	Workers int
	// Log, when set, receives one line per scheduling decision.
	Log func(format string, args ...any)
	// AfterRun, when set, is invoked (from worker goroutines) after every
	// executed run — for progress reporting or bounded-run harnesses.
	AfterRun func(runID string)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Result summarises one orchestrator invocation.
type Result struct {
	// Total is the sweep's expanded run count.
	Total int
	// Executed counts runs performed by this invocation.
	Executed int
	// Skipped counts runs already completed in an earlier invocation.
	Skipped int
	// Failed counts runs that errored this invocation (recorded in the
	// manifest and retried by the next invocation).
	Failed int
	// Summaries holds every completed run's summary (executed now or
	// earlier), sorted by run ID.
	Summaries []*RunSummary
}

// RunSweep expands the sweep and executes its runs across a bounded worker
// pool under root:
//
//	<root>/sweep.json       the sweep spec (pinned; a different spec errors)
//	<root>/manifest.jsonl   append-only run ledger (the resume state)
//	<root>/runs/<run-id>/   one directory per run (segment stores + summary)
//
// Completed runs are skipped, so re-invoking after a crash or cancellation
// resumes where the sweep left off. Cancelling ctx stops claiming new runs;
// in-flight runs finish and are recorded. Individual run failures are
// recorded and do not abort the sweep; they surface in Result.Failed and
// the returned error.
func RunSweep(ctx context.Context, root string, sw SweepSpec, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	runs, err := Expand(sw)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("sweep: %q expands to zero runs", sw.Name)
	}
	if err := os.MkdirAll(filepath.Join(root, runsDir), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create root: %w", err)
	}
	if err := pinSweepSpec(root, sw); err != nil {
		return nil, err
	}
	man, err := openManifest(root)
	if err != nil {
		return nil, err
	}
	defer man.close()

	m := swMetrics.Load()
	if m != nil {
		m.total.Set(float64(len(runs)))
	}

	res := &Result{Total: len(runs)}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	jobs := make(chan Run)
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range jobs {
				var runStart time.Time
				if m != nil {
					m.inflight.Inc()
					runStart = time.Now()
				}
				sum, err := ExecuteRun(RunDir(root, run.ID), run)
				if m != nil {
					m.inflight.Dec()
					m.wall.ObserveDuration(time.Since(runStart))
					if err != nil {
						m.failed.Inc()
					} else {
						m.completed.Inc()
					}
				}
				entry := ManifestEntry{RunID: run.ID}
				if err != nil {
					entry.Status = StatusFailed
					entry.Error = err.Error()
					opts.Log("run %s failed: %v", run.ID, err)
				} else {
					entry.Status = StatusDone
					entry.Summary = filepath.Join(runsDir, run.ID, summaryFile)
					opts.Log("run %s done (%.0f entries, %dms)", run.ID, sum.Metrics["entries"], sum.ElapsedMS)
				}
				recErr := man.record(entry)
				if m != nil && recErr == nil {
					m.manifest.Inc()
				}
				mu.Lock()
				if err != nil {
					res.Failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("run %s: %w", run.ID, err)
					}
				} else {
					res.Executed++
					res.Summaries = append(res.Summaries, sum)
				}
				if recErr != nil && firstErr == nil {
					firstErr = recErr
				}
				mu.Unlock()
				if opts.AfterRun != nil {
					opts.AfterRun(run.ID)
				}
			}
		}()
	}

dispatch:
	for _, run := range runs {
		if man.done(run.ID) {
			sum, err := ReadSummary(filepath.Join(RunDir(root, run.ID), summaryFile))
			mu.Lock()
			if err != nil {
				// The ledger says done but the summary is unreadable;
				// treat as failed so the operator sees it rather than
				// silently re-running or silently dropping the cell.
				res.Failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("run %s recorded done but summary unreadable: %w", run.ID, err)
				}
			} else {
				res.Skipped++
				res.Summaries = append(res.Summaries, sum)
				if m != nil {
					m.skipped.Inc()
				}
			}
			mu.Unlock()
			opts.Log("run %s already done, skipping", run.ID)
			continue
		}
		select {
		case <-ctx.Done():
			break dispatch
		case jobs <- run:
		}
	}
	close(jobs)
	wg.Wait()

	sort.Slice(res.Summaries, func(i, j int) bool { return res.Summaries[i].RunID < res.Summaries[j].RunID })
	if err := ctx.Err(); err != nil && firstErr == nil {
		firstErr = err
	}
	return res, firstErr
}

// RunDir returns a run's directory inside a sweep root.
func RunDir(root, runID string) string {
	return filepath.Join(root, runsDir, runID)
}

// pinSweepSpec persists the sweep spec at the root on first use and
// verifies subsequent invocations run the same sweep: mixing grids in one
// root would corrupt the manifest's meaning.
func pinSweepSpec(root string, sw SweepSpec) error {
	blob, err := sw.Marshal()
	if err != nil {
		return err
	}
	path := filepath.Join(root, sweepFile)
	existing, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return os.WriteFile(path, blob, 0o644)
	}
	if err != nil {
		return fmt.Errorf("sweep: read pinned spec: %w", err)
	}
	if !bytes.Equal(existing, blob) {
		return fmt.Errorf("sweep: %s already holds a different sweep spec; use a fresh root or delete it", path)
	}
	return nil
}

// LoadRoot reads back a sweep root's pinned spec, for bssweep resume and
// report.
func LoadRoot(root string) (SweepSpec, error) {
	return LoadSweep(filepath.Join(root, sweepFile))
}

// LoadSummaries loads every completed run's summary from a sweep root by
// walking the manifest — the aggregation input, gathered without touching
// a single raw trace segment. Summaries are sorted by run ID.
func LoadSummaries(root string) ([]*RunSummary, error) {
	entries, err := LoadManifest(root)
	if err != nil {
		return nil, err
	}
	var out []*RunSummary
	for _, e := range entries {
		if e.Status != StatusDone {
			continue
		}
		sum, err := ReadSummary(filepath.Join(root, e.Summary))
		if err != nil {
			return nil, err
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RunID < out[j].RunID })
	return out, nil
}
