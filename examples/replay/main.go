// Replay walkthrough: record a monitored run, replay the recorded trace
// back through the simulator, then scale it up — the loop that turns every
// captured observation into a reusable, amplifiable workload.
//
// The demo does three things:
//
//  1. Record: a small synthetic world runs with two monitors streaming
//     their observations into on-disk segment stores.
//  2. Direct replay: the stores drive a fresh simulation at 1×; the
//     per-monitor request counts must match the recording exactly (the
//     self-validation path).
//  3. Fitted replay: empirical models (popularity, activity, diurnal
//     shape) are fitted to the trace and a 10×-amplified population
//     replays a statistically matched workload.
//
// Finally the three monitor-side summaries print side by side.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "bitswapmon-replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// --- 1. Record a run into segment stores -----------------------------
	fmt.Println("recording: 80-node world, two monitors, 2 simulated hours")
	w, err := workload.Build(workload.Config{
		Seed:  7,
		Nodes: 80,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
		Gateways:            []workload.OperatorSpec{},
		CatalogItems:        300,
		MeanRequestsPerHour: 8,
	})
	if err != nil {
		return err
	}
	var inputs []string
	stores := make(map[string]*ingest.SegmentStore)
	for _, m := range w.Monitors {
		path := filepath.Join(dir, m.Name+".segments")
		store, err := ingest.OpenSegmentStore(path, ingest.SegmentOptions{})
		if err != nil {
			return err
		}
		m.SetSink(store)
		stores[m.Name] = store
		inputs = append(inputs, path)
	}
	w.Run(2 * time.Hour)
	recorded := trace.NewSummarizer()
	for name, store := range stores {
		if err := store.Close(); err != nil {
			return fmt.Errorf("seal %s: %w", name, err)
		}
		it, err := store.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			return err
		}
		if _, err := ingest.Copy(recorded, it); err != nil {
			return err
		}
		it.Close()
	}

	// --- 2. Direct replay at 1× ------------------------------------------
	fmt.Println("direct replay: re-issuing every recorded entry (time-warped 8×)")
	direct, err := replaySummary(replay.Spec{
		Mode:     replay.ModeDirect,
		Inputs:   inputs,
		TimeWarp: 8, // warping compresses wall/virtual time, never counts
		Seed:     1,
	})
	if err != nil {
		return err
	}

	// --- 3. Fitted replay at 10× -----------------------------------------
	fmt.Println("fitted replay: empirical models, 10× population")
	fitted, err := replaySummary(replay.Spec{
		Mode:     replay.ModeFitted,
		Inputs:   inputs,
		Amplify:  10,
		TimeWarp: 8,
		Seed:     2,
	})
	if err != nil {
		return err
	}

	// --- Diff the three summaries ----------------------------------------
	rec := recorded.Summary()
	fmt.Printf("\n%-22s %12s %12s %12s\n", "", "recorded", "replayed 1x", "fitted 10x")
	row := func(label string, a, b, c int) {
		fmt.Printf("%-22s %12d %12d %12d\n", label, a, b, c)
	}
	row("entries", rec.Entries, direct.Entries, fitted.Entries)
	row("requests", rec.Requests, direct.Requests, fitted.Requests)
	row("unique peers", rec.UniquePeers, direct.UniquePeers, fitted.UniquePeers)
	row("unique CIDs", rec.UniqueCIDs, direct.UniqueCIDs, fitted.UniqueCIDs)
	row("monitor us entries", rec.PerMonitor["us"], direct.PerMonitor["us"], fitted.PerMonitor["us"])
	row("monitor de entries", rec.PerMonitor["de"], direct.PerMonitor["de"], fitted.PerMonitor["de"])
	if rec.Requests != direct.Requests {
		return fmt.Errorf("direct replay drifted: %d requests vs %d recorded", direct.Requests, rec.Requests)
	}
	fmt.Println("\ndirect replay matches the recording; the fitted run scales it ~10x.")
	return nil
}

// replaySummary prepares, drives and summarises one replay session.
func replaySummary(spec replay.Spec) (trace.Summary, error) {
	sess, err := replay.Prepare(spec)
	if err != nil {
		return trace.Summary{}, err
	}
	defer sess.Close()
	if _, err := sess.Drive(); err != nil {
		return trace.Summary{}, err
	}
	z := trace.NewSummarizer()
	for _, m := range sess.World.Monitors {
		for _, e := range m.Trace() {
			z.Write(e)
		}
	}
	return z.Summary(), nil
}
