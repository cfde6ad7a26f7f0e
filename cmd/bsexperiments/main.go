// Command bsexperiments regenerates every table and figure of the paper
// from simulated scenarios.
//
// Usage:
//
//	bsexperiments [-scale small|default] [-seed N] [-only week|upgrade]
//	              [-spec FILE] [-dump-spec]
//	              [-engine serial|sharded] [-shards N]
//	              [-replay INPUTS] [-replay-mode replay|fitted]
//	              [-amplify N] [-timewarp N]
//	              [-trace-out FILE] [-trace-sample F]
//	              [-cpuprofile FILE] [-memprofile FILE] [-metrics-addr ADDR]
//
// -replay switches from the synthetic scenarios to trace-driven replay:
// INPUTS is a comma-separated list of recorded trace sources (segment-store
// directories, flat .trace files, or .csv exports — one per recording
// monitor). -replay-mode picks direct replay (re-issue every recorded entry
// at its recorded offset) or fitted replay (fit empirical models, generate
// a matched workload); -amplify scales the fitted population and volume,
// -timewarp compresses replayed time. The replay world's monitors are
// discovered from the inputs.
//
// The week scenario is assembled through a declarative sweep.ScenarioSpec:
// -scale picks a built-in spec (sweep.DefaultSpec or sweep.WeekSpec), -spec
// loads one from a JSON file instead,
// and -dump-spec prints the assembled spec (after flag overrides) without
// running — the starting point for a sweep campaign's base spec. Explicitly
// set -seed/-engine/-shards flags override the spec from either source.
// Flags and spec files share one scenario-assembly code path, so a dumped
// spec reproduces exactly the run its flags would have performed.
//
// -trace-out enables the virtual-time causal flight recorder: sampled
// requests carry spans across workload → gateway → DHT → Bitswap → delivery,
// exported as Chrome trace-event JSON (open in Perfetto or chrome://tracing)
// with a .jsonl sidecar, and the report gains a span-driven per-stage latency
// breakdown. -trace-sample head-samples deterministically by seed, so the
// same requests are traced across engines and repeated runs.
//
// The serial engine is the deterministic reference (same seed, same bytes);
// the sharded engine runs the scenario across all cores with conservative
// lookahead synchronization, for large populations. The profile flags write
// pprof data for scaling work on either engine; -metrics-addr serves live
// Prometheus metrics and /debug/pprof while a run is in flight.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bitswapmon/internal/cmdutil"
	"bitswapmon/internal/experiments"
	"bitswapmon/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bsexperiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bsexperiments", flag.ContinueOnError)
	scaleName := fs.String("scale", "small", "scenario scale: small or default")
	specPath := fs.String("spec", "", "load the week scenario from a spec file instead of -scale")
	dumpSpec := fs.Bool("dump-spec", false, "print the assembled scenario spec as JSON and exit")
	seed := fs.Int64("seed", 42, "simulation seed")
	only := fs.String("only", "", "run only one experiment: week or upgrade")
	upgradeNodes := fs.Int("upgrade-nodes", 150, "population for the Fig. 4 scenario")
	upgradeWeeks := fs.Int("upgrade-weeks", 3, "observed weeks for the Fig. 4 scenario")
	engineName := fs.String("engine", "serial", "simulation engine: serial or sharded")
	shards := fs.Int("shards", 0, "worker shards for -engine=sharded (0 = engine default)")
	replayInputs := fs.String("replay", "", "comma-separated recorded trace inputs (segment dirs, .trace, .csv): replay them instead of the synthetic scenarios")
	replayMode := fs.String("replay-mode", "replay", "trace replay mode: replay (direct) or fitted")
	amplify := fs.Float64("amplify", 0, "fitted-replay population/volume multiplier")
	timewarp := fs.Float64("timewarp", 0, "replay time compression factor (2 = twice as fast)")
	traceOut := fs.String("trace-out", "", "record causal request traces and write Chrome trace-event JSON (Perfetto-loadable) plus a .jsonl sidecar to this path")
	traceSample := fs.Float64("trace-sample", 1, "deterministic trace head-sampling rate in [0,1] (with -trace-out)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :9090) and enable instrumentation")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := assembleSpec(fs, *specPath, *scaleName, *seed, *engineName, *shards)
	if err != nil {
		return err
	}
	if *replayInputs != "" {
		spec.WorkloadSource = &sweep.WorkloadSourceSpec{
			Mode:     *replayMode,
			Inputs:   strings.Split(*replayInputs, ","),
			TimeWarp: *timewarp,
			Amplify:  *amplify,
		}
		// The replay world's monitors come from the trace, not the
		// synthetic scenario's vantage points.
		spec.Monitors = nil
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		spec.Trace = true
		spec.TraceSample = *traceSample
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	if *dumpSpec {
		blob, err := spec.Marshal()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(blob)
		return err
	}

	srv, err := cmdutil.ServeMetrics(*metricsAddr)
	if err != nil {
		return err
	}
	if srv != nil {
		fmt.Fprintf(os.Stderr, "bsexperiments: serving metrics on http://%s/metrics\n", srv.Addr())
		defer srv.Close()
	}
	prof, err := cmdutil.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}

	if spec.ReplayMode() {
		rep, err := experiments.RunReplay(spec)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		fmt.Println(rep.Render())
		if err := cmdutil.ExportTrace("bsexperiments", *traceOut, rep.Tracer); err != nil {
			return err
		}
		return prof.Stop()
	}

	if *only == "" || *only == "week" {
		rep, err := experiments.RunWeekSpec(spec)
		if err != nil {
			return fmt.Errorf("week scenario: %w", err)
		}
		fmt.Println(rep.Render())
		if err := cmdutil.ExportTrace("bsexperiments", *traceOut, rep.Tracer); err != nil {
			return err
		}
	}
	if *only == "" || *only == "upgrade" {
		// The Fig. 4 scenario is a preset of its own; it runs on the week
		// scenario's seed and engine.
		up := sweep.UpgradeSpec(*upgradeNodes, *upgradeWeeks)
		up.Seed, up.Engine, up.Shards = spec.Seed, spec.Engine, spec.Shards
		rep, err := experiments.RunUpgrade(up)
		if err != nil {
			return fmt.Errorf("upgrade scenario: %w", err)
		}
		fmt.Println(rep.Render())
	}

	return prof.Stop()
}

// assembleSpec builds the week scenario spec from -spec or -scale, then
// applies explicitly set flag overrides, so a spec file and flags compose
// rather than conflict.
func assembleSpec(fs *flag.FlagSet, specPath, scaleName string, seed int64, engineName string, shards int) (sweep.ScenarioSpec, error) {
	var spec sweep.ScenarioSpec
	if specPath != "" {
		var err error
		spec, err = sweep.LoadSpec(specPath)
		if err != nil {
			return spec, err
		}
	} else {
		switch scaleName {
		case "small":
			spec = sweep.DefaultSpec()
		case "default":
			spec = sweep.WeekSpec()
		default:
			return spec, fmt.Errorf("unknown scale %q", scaleName)
		}
		spec.Seed = seed
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			spec.Seed = seed
		case "engine":
			spec.Engine = engineName
		case "shards":
			spec.Shards = shards
		}
	})
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}
