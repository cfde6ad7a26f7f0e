// Service-mode demo: the library pieces behind the `bsmon` daemon, wired
// by hand and with no warm-up, where bsmon starts its spec through
// sweep.Start. A monitored scenario streams into per-monitor segment stores
// and a rolling-window report driver; a background Maintainer compacts
// small sealed segments into generation-2 segments and expires raw data
// behind a retention horizon while the rolled-up window results stay
// durable: the continuous-monitoring shape of the paper's deployment,
// monitors that run for months with bounded disk and no resident trace.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "bitswapmon-servicemode")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	w, err := workload.Build(workload.Config{
		Seed:  11,
		Nodes: 120,
		Monitors: []monitor.Spec{
			{Name: "us", Region: simnet.RegionUS},
			{Name: "de", Region: simnet.RegionDE},
		},
	})
	if err != nil {
		return err
	}

	// Rolling windows: the traffic report evaluated over 2h tumbling
	// windows of the unified live stream. Every closed window is appended
	// to a JSONL log — the durable rollup that outlives raw-segment
	// retention.
	windowLog, err := os.Create(filepath.Join(dir, "windows.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(windowLog)
	wd, err := report.NewWindowedDriver(report.WindowOptions{
		Width:   2 * time.Hour,
		Keep:    48,
		Reports: []string{"traffic"},
		Opts: report.Options{
			Geo:        w.Geo,
			GatewayIDs: w.GatewayNodeIDs(),
		},
		Dedup:   true,
		OnClose: func(res report.WindowResult) error { return enc.Encode(res) },
	})
	if err != nil {
		return err
	}

	// Wiring: each monitor tees its raw stream into its own segment store
	// (fine 30m rotation, so compaction has something to do) and into one
	// shared UnifySink that orders and flags the merged stream before the
	// windowed driver consumes it.
	uni := ingest.NewUnifySink(wd)
	var stores []*ingest.SegmentStore
	var maintainers []*ingest.Maintainer
	for _, m := range w.Monitors {
		store, err := ingest.OpenSegmentStore(
			filepath.Join(dir, m.Name+".segments"),
			ingest.SegmentOptions{Rotation: 30 * time.Minute})
		if err != nil {
			return err
		}
		stores = append(stores, store)
		// One Maintainer per store: merge runs of >= 3 small segments,
		// expire raw segments entirely older than 12h behind the newest
		// data.
		maintainers = append(maintainers, ingest.NewMaintainer(store, ingest.MaintainOptions{
			Interval:   200 * time.Millisecond,
			Compaction: ingest.CompactionPolicy{MinRun: 3},
			Retention:  ingest.RetentionPolicy{MaxAge: 12 * time.Hour},
		}))
		m.SetSink(ingest.Tee(store, uni))
	}

	// Two simulated days, advanced in chunks the way the daemon's service
	// loop does (a real deployment checks for shutdown between chunks).
	fmt.Println("running 2 days of virtual time...")
	for i := 0; i < 48; i++ {
		w.Run(time.Hour)
	}

	// Shutdown, in daemon order: seal the stores, flush the unifier's final
	// batch, finalize open windows, then one last maintenance pass.
	for i, m := range w.Monitors {
		if err := stores[i].Close(); err != nil {
			return err
		}
		if err := m.SinkErr(); err != nil {
			return err
		}
	}
	if err := uni.Flush(); err != nil {
		return err
	}
	windows, err := wd.Close()
	if err != nil {
		return err
	}
	for _, mt := range maintainers {
		if err := mt.Close(); err != nil {
			return err
		}
	}

	for i, m := range w.Monitors {
		segs := stores[i].Segments()
		first, last := segs[0].Footer.First, segs[len(segs)-1].Footer.Last
		fmt.Printf("monitor %s: %d entries in %d segments, retained [%s, %s] (%s of raw data)\n",
			m.Name, stores[i].Totals().Entries, len(segs),
			first.Format("01-02 15:04"), last.Format("01-02 15:04"),
			last.Sub(first).Round(time.Hour))
		st := maintainers[i].Stats()
		fmt.Printf("  maintenance: %d compactions absorbed %d segments, %d expired by retention\n",
			st.Compactions, st.CompactedSegments, st.Expired)
	}
	fmt.Printf("\nrolling 2h traffic windows (%d closed, durable in windows.jsonl):\n", len(windows))
	for _, res := range windows[len(windows)-6:] {
		m := res.Metrics["traffic"]
		fmt.Printf("  [%s, %s) %5d entries, %4.1f%% rebroadcast\n",
			res.Start.Format("01-02 15:04"), res.End.Format("15:04"),
			res.Entries, 100*m["rebroad_share"])
	}
	fmt.Println("\nnote how retention kept ~12h of raw segments while every window")
	fmt.Println("since the start survives as rolled-up report state.")
	return windowLog.Close()
}
