// Streaming ingestion demo: run a monitored scenario whose monitors stream
// observations straight to disk through the ingest pipeline (segment store
// + one-pass statistics), then analyse the collected trace without ever
// holding it in memory — the shape of the paper's production deployment,
// where monitors collected hundreds of millions of entries per day.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
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
	dir, err := os.MkdirTemp("", "bitswapmon-streaming")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// A small two-monitor world, as in the paper's us/de deployment.
	w, err := workload.Build(workload.Config{
		Seed:  7,
		Nodes: 120,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
	})
	if err != nil {
		return err
	}

	// Capture path: each monitor streams into its own segment store, with
	// a one-pass aggregator teed alongside. No monitor retains entries.
	stores := make(map[string]*ingest.SegmentStore)
	stats := make(map[string]*ingest.OnlineStats)
	for _, m := range w.Monitors {
		store, err := ingest.OpenSegmentStore(filepath.Join(dir, m.Name), ingest.SegmentOptions{
			Rotation: 30 * time.Minute,
		})
		if err != nil {
			return err
		}
		st := ingest.NewOnlineStats(ingest.StatsOptions{Bucket: 30 * time.Minute, TopK: 5})
		m.SetSink(ingest.Tee(store, st))
		stores[m.Name] = store
		stats[m.Name] = st
	}

	fmt.Println("running 120 nodes for 3h of virtual time, streaming to segments...")
	w.Run(3 * time.Hour)

	// The stores now hold the whole trace, partitioned by time, with
	// footers describing each segment — no entry is resident in RAM.
	for _, m := range w.Monitors {
		store := stores[m.Name]
		if err := store.Close(); err != nil {
			return err
		}
		if err := m.SinkErr(); err != nil {
			return err
		}
		if got := m.Trace(); got != nil {
			return fmt.Errorf("monitor %s retained %d entries in RAM", m.Name, len(got))
		}
		tot := store.Totals()
		fmt.Printf("\nmonitor %s: %d entries in %d segments, ~%.0f distinct peers\n",
			m.Name, tot.Entries, len(store.Segments()), stats[m.Name].DistinctPeers())
		for _, seg := range store.Segments() {
			fmt.Printf("  segment %06d: %5d entries  %s .. %s\n",
				seg.Seq, seg.Footer.Entries,
				seg.Footer.First.Format("15:04:05"), seg.Footer.Last.Format("15:04:05"))
		}
	}

	// Analysis path: unify both monitors' streams online (Sec. IV-B dedup
	// windows, bounded state) and summarise in the same pass.
	var sources []ingest.EntrySource
	for _, m := range w.Monitors {
		it, err := stores[m.Name].Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			return err
		}
		sources = append(sources, it)
	}
	z := trace.NewSummarizer()
	if _, err := ingest.Copy(z, ingest.NewStreamUnifier(sources...)); err != nil {
		return err
	}
	sum := z.Summary()
	fmt.Printf("\nunified (streaming): %d entries, %d peers, %d CIDs\n",
		sum.Entries, sum.UniquePeers, sum.UniqueCIDs)
	fmt.Printf("flagged online: %d rebroadcasts, %d inter-monitor dups\n",
		sum.Rebroadcasts, sum.InterMonDups)

	// The popularity picture, straight from the capture-time sketch.
	fmt.Println("\nmost requested CIDs at monitor us (space-saving estimates):")
	for i, tc := range stats["us"].TopCIDs(5) {
		fmt.Printf("  %d. %s  ~%d requests\n", i+1, tc.CID, tc.Count)
	}

	// A windowed query touches only the overlapping segments' footers and
	// payloads: here, the second virtual hour.
	first := stores["us"].Totals().First
	it, err := stores["us"].Query(first.Add(time.Hour), first.Add(2*time.Hour), nil)
	if err != nil {
		return err
	}
	window, err := ingest.Drain(it)
	if err != nil {
		return err
	}
	fmt.Printf("\nsecond-hour window at us: %d entries\n", len(window))
	return nil
}
