package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/popularity"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/report"
	"bitswapmon/internal/sweep"
	"bitswapmon/internal/trace"
)

// ReplayReport carries the monitor-side aggregates of one replay run: what
// was driven, what the monitors recorded, and — in fitted mode — how the
// replayed popularity compares with the model it was generated from.
type ReplayReport struct {
	Mode  replay.Mode
	Stats *replay.DriveStats

	// Summary is the unified monitor-side trace summary of the replayed
	// world (Sec. IV-B flags recomputed online over the replay).
	Summary trace.Summary
	// PerMonitorRequests counts non-CANCEL entries per monitor.
	PerMonitorRequests map[string]int

	// Model is the fitted model (fitted mode only).
	Model *replay.Model
	// ReplayedAlpha is the power-law exponent fitted to the replayed
	// deduplicated trace, 0 when the trace cannot support a fit. In fitted
	// mode it tracks Model.PowerLaw.Alpha across amplification when the
	// underlying popularity is power-law shaped (alpha is only
	// scale-stable for actual power laws; the simulator's lognormal
	// mixture, like the paper's data, is not one).
	ReplayedAlpha float64
	// ModelTopShare and ReplayTopShare are the fraction of (model /
	// replayed deduplicated) requests landing on the model's ten most
	// popular CIDs: a scale-invariant popularity-preservation check that
	// holds for any distribution shape.
	ModelTopShare  float64
	ReplayTopShare float64

	// Latency is the span-driven per-stage latency breakdown, present only
	// when the spec enabled tracing; Tracer is the recorder that produced
	// it, kept so callers can export the raw spans (Perfetto/JSONL).
	Latency *report.LatencyBreakdown
	Tracer  *otrace.Tracer

	Elapsed time.Duration
}

// monitorRequests is a custom streaming report: non-CANCEL entries per
// monitor. It is the template for a new metric — implement Report, return
// report.Values, and any driver (live sink, bsanalyze, sweep summaries) can
// run it.
type monitorRequests map[string]int

func (r monitorRequests) WantsDedup() bool { return false }

func (r monitorRequests) Observe(e trace.Entry) error {
	if e.IsRequest() {
		r[e.Monitor]++
	}
	return nil
}

func (r monitorRequests) Finalize() (report.Result, error) {
	v := make(report.Values, len(r))
	for mon, n := range r {
		v[mon] = float64(n)
	}
	return v, nil
}

// replayPopularity scores the replayed deduplicated trace (RRP/URP) and
// fits the power-law exponent; RunReplay reads the scores themselves off
// its counter for the fitted-mode top-share comparison. Unlike the
// registered popularity report it skips the bootstrap p-value — replay
// validation only needs alpha. Its counter is the pass's
// (report.Options.Counter), so it numbers peers and CIDs once with the
// summary beside it; it is the only popularity report of its driver, so it
// is the one that feeds the counter.
type replayPopularity struct {
	counter *popularity.Counter
}

func (r *replayPopularity) WantsDedup() bool            { return true }
func (r *replayPopularity) Observe(e trace.Entry) error { return r.counter.Write(e) }

func (r *replayPopularity) Finalize() (report.Result, error) {
	v := report.Values{"replayed_alpha": 0, "cids": float64(r.counter.CIDs())}
	rrp, _ := r.counter.SortedValues()
	if fit, err := popularity.FitPowerLaw(rrp); err == nil {
		v["replayed_alpha"] = fit.Alpha
	}
	return v, nil
}

// RunReplay executes the replay scenario a declarative spec describes (its
// workload_source section selects direct or fitted mode) and computes the
// report. The reports ride as live monitor sinks behind one UnifySink, so
// the replayed trace is summarized and scored as it is observed, never
// retained; use the sweep orchestrator for runs whose traces must stream to
// disk.
func RunReplay(spec sweep.ScenarioSpec) (*ReplayReport, error) {
	start := time.Now()
	drv := report.NewDriver(true)
	if err := drv.AddByName([]string{"summary"}, report.Options{}); err != nil {
		return nil, err
	}
	var pop *replayPopularity
	err := drv.AddNew("popularity", func(o report.Options) (report.Report, error) {
		c, _ := o.Counter()
		pop = &replayPopularity{counter: c}
		return pop, nil
	}, report.Options{})
	if err != nil {
		return nil, err
	}
	perMon := make(monitorRequests)
	drv.Add("monitor_requests", perMon)
	uni := ingest.NewUnifySink(drv)
	meas, err := sweep.MeasureReplay(spec, spec.Seed, func(w *replay.World) error {
		w.SetSinks(func(string) ingest.Sink { return uni })
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := uni.Flush(); err != nil {
		return nil, err
	}
	results, err := drv.Finalize()
	if err != nil {
		return nil, err
	}

	rep := &ReplayReport{
		Mode:               replay.ModeDirect,
		Stats:              meas.Drive,
		PerMonitorRequests: map[string]int(perMon),
		Model:              meas.Model,
		Summary:            results.Get("summary").(*report.SummaryResult).Summary,
	}
	if meas.Model != nil {
		rep.Mode = replay.ModeFitted
	}
	if tr := meas.World.Tracer(); tr != nil {
		rep.Tracer = tr
		rep.Latency = report.BreakdownFromSpans(tr.Spans(), tr.Dropped())
	}
	rep.ReplayedAlpha = results.Get("popularity").(report.Values)["replayed_alpha"]
	if m := meas.Model; m != nil && m.Requests > 0 {
		top := make(map[string]bool)
		topCount := 0
		for _, cc := range m.TopCIDs(10) {
			top[cc.CID.Key()] = true
			topCount += cc.Count
		}
		rep.ModelTopShare = float64(topCount) / float64(m.Requests)
		replayedTop, replayedTotal := 0, 0
		for c, n := range pop.counter.Scores().RRP {
			replayedTotal += n
			if top[c.Key()] {
				replayedTop += n
			}
		}
		if replayedTotal > 0 {
			rep.ReplayTopShare = float64(replayedTop) / float64(replayedTotal)
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Render prints the report.
func (r *ReplayReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "==== Replay report (%s mode) ====\n\n", r.Mode)
	fmt.Fprintf(&sb, "driven: %d events (%d sends) from %d requesters over %v of virtual time\n",
		r.Stats.Events, r.Stats.Sends, r.Stats.Requesters, r.Stats.VirtualDuration.Round(time.Second))
	s := r.Summary
	fmt.Fprintf(&sb, "recorded: %d entries (%d requests), %d peers, %d CIDs\n",
		s.Entries, s.Requests, s.UniquePeers, s.UniqueCIDs)
	names := make([]string, 0, len(r.PerMonitorRequests))
	for name := range r.PerMonitorRequests {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "  monitor %s: %d requests\n", name, r.PerMonitorRequests[name])
	}
	if m := r.Model; m != nil {
		fmt.Fprintf(&sb, "\nfitted model: %d requests / %d requesters / %d CIDs over %v (WANT_BLOCK share %.2f)\n",
			m.Requests, m.Requesters, len(m.Popularity), m.Duration.Round(time.Second), m.WantBlockShare)
		if m.PowerLaw != nil {
			fmt.Fprintf(&sb, "popularity alpha: fitted %.3f, replayed %.3f\n", m.PowerLaw.Alpha, r.ReplayedAlpha)
		}
		fmt.Fprintf(&sb, "top-10 CID request share: model %.3f, replayed %.3f\n", r.ModelTopShare, r.ReplayTopShare)
	} else if r.ReplayedAlpha > 0 {
		fmt.Fprintf(&sb, "replayed popularity alpha: %.3f\n", r.ReplayedAlpha)
	}
	if r.Latency != nil {
		sb.WriteString("\n")
		sb.WriteString(r.Latency.Render())
	}
	fmt.Fprintf(&sb, "\nwall time: %v\n", r.Elapsed.Round(time.Millisecond))
	return sb.String()
}
