// Command bench is the repository benchmark: four workloads over the
// paper's pipeline (scenario → engine → Bitswap/DHT → monitor tap → segment
// store → unifier → reports), six end-to-end metrics measured with metrics
// and tracing off, and one traced run per workload for the per-layer
// numbers. Every layer is measured from outside, by timing calls into its
// public functions and wrapping ingest.Sink and ingest.EntrySource.
//
//	bash bench/run.sh -seed 42 -out results.json     every workload, both kinds of run
//	bash bench/run.sh --workload capture_analyze --seed 7 --seconds 20 --trace 0
//	bash bench/run.sh compare A.json B.json
//
// Each timed rep runs in a fresh child process of this binary, one at a
// time, so the resident high-water mark and the GC's state do not leak from
// one rep into the next. See README.md for the metric tables.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"bitswapmon/internal/cmdutil"
)

const (
	// minReps is the number of timed reps a run makes at least; a run goes
	// on past it until the reps' wall times add up to -seconds.
	minReps = 5
	// traceBaseReps is how many untraced reps a --trace 1 run makes to
	// compare the traced rep's wall time against.
	traceBaseReps = 3
	// runCap stops a run from adding reps beyond minReps this long after it
	// began, whatever -seconds asks for: set-up and checks come on top of
	// the measured time, and the driver's 92 runs share 3420 s.
	runCap = 26 * time.Second
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			blob, err := manifestJSON()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(blob)
			return
		}
	}
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 42, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures: reps are added until their wall times sum to this")
		traceArg = flag.Int("trace", -1, "0: end-to-end reps only; 1: per-layer traced run only; -1: both")
		out      = flag.String("out", "", "write the full results as JSON to this file")
		work     = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for segment stores and profiles")
		child    = flag.String("child", "", "internal: run one rep in this mode and print its result")
	)
	flag.Parse()
	if *child != "" {
		if err := childMain(*child, *workload, *seed, *work); err != nil {
			fatal(err)
		}
		return
	}

	var selected []workloadDef
	if *workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*workload); ok {
		selected = []workloadDef{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	r := runner{seed: *seed, seconds: *seconds, work: *work}
	res := results{
		Host:      stampHost(),
		Seed:      *seed,
		Sizes:     sizesFor(1),
		MinReps:   minReps,
		Seconds:   *seconds,
		Workloads: make(map[string]*workloadResult),
	}
	for _, w := range selected {
		wr, err := r.run(w, *traceArg != 1, *traceArg != 0)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		res.Workloads[w.name] = wr
		wr.print(os.Stdout, w)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	// The driver's contract: one workload, one kind of run, and the result
	// as the last line of standard output.
	if len(selected) == 1 && *traceArg >= 0 {
		fmt.Println(res.Workloads[selected[0].name].resultLine(*traceArg == 1))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// childMain runs one rep of one workload and prints its repResult as one
// JSON line, or, in modeCalib, runs the calibration work and prints its time
// in seconds.
func childMain(mode, workload string, seed int64, dir string) error {
	if mode == modeCalib {
		d, err := calibrate()
		if err != nil {
			return err
		}
		_, err = fmt.Println(d.Seconds())
		return err
	}
	w, ok := workloadByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if mode != modeTimed {
		// Telemetry handles resolve at construction, so instrumentation
		// goes on before any engine, store or driver exists.
		cmdutil.EnableAllMetrics()
	}
	v := newEnv(seed, sizesFor(1), dir, mode)
	run := w.run
	if mode == modeSharded {
		run = func(v *env) error { return runScenario(v, "sharded") }
	}
	if err := run(v); err != nil {
		return err
	}
	if v.traced {
		if err := v.commonLayers(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(v.res)
}

// runner starts the child processes of one invocation.
type runner struct {
	seed    int64
	seconds float64
	work    string
	started int
	// cal is the time of the latest calibration process. Reps run back to
	// back, so the calibration after one rep is also the one before the next.
	cal float64
}

// calibrate runs the calibration work in a process of its own, so that it
// shares neither a heap nor a resident high-water mark with a workload.
func (r *runner) calibrate() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-child", modeCalib)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	r.cal, err = strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
	return err
}

// rep runs one rep in a fresh child process with its own scratch directory,
// which is removed when the child has exited, between two calibrations.
func (r *runner) rep(w workloadDef, mode string) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if r.cal == 0 {
		if err := r.calibrate(); err != nil {
			return nil, err
		}
	}
	before := r.cal
	r.started++
	dir := filepath.Join(r.work, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), r.started))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.Command(self,
		"-child", mode, "-workload", w.name, "-work", dir,
		"-seed", strconv.FormatInt(r.seed, 10))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s rep: %w", mode, err)
	}
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(outBytes), &res); err != nil {
		return nil, fmt.Errorf("%s rep: decode result: %w", mode, err)
	}
	if err := r.calibrate(); err != nil {
		return nil, err
	}
	res.CalS = (before + r.cal) / 2
	return &res, nil
}

// stat summarises one metric over a run's reps.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) stat {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return stat{Unit: unit, Median: median(sorted), Min: sorted[0], Max: sorted[len(sorted)-1], N: len(values), Values: values}
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// workloadResult is everything one invocation measured on one workload.
type workloadResult struct {
	OutputSHA256 string          `json:"output_sha256"`
	Correct      bool            `json:"correct"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	Failures     []string        `json:"failures,omitempty"`
	EndToEnd     map[string]stat `json:"end_to_end,omitempty"`
	// Raw holds the reps' times as the clock read them, and the host-speed
	// index (see hostSpeed) that turned them into the end-to-end metrics.
	Raw      map[string]stat    `json:"raw,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// results is the file -out writes and compare reads.
type results struct {
	Host      hostStamp                  `json:"host"`
	Seed      int64                      `json:"seed"`
	Sizes     sizes                      `json:"sizes"`
	MinReps   int                        `json:"min_reps"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// fold adds one rep's checks to the workload's tally. Every rep of one seed
// must produce the same unified CSV.
func (wr *workloadResult) fold(rep *repResult) {
	wr.Attempted += rep.Attempted
	wr.Failed += rep.Failed
	wr.Failures = append(wr.Failures, rep.Failures...)
	if wr.OutputSHA256 == "" {
		wr.OutputSHA256 = rep.OutputSHA256
	}
	wr.Attempted++
	if rep.OutputSHA256 != wr.OutputSHA256 {
		wr.Failed++
		wr.Failures = append(wr.Failures, fmt.Sprintf("output_sha256 %s differs from the first rep's %s", rep.OutputSHA256, wr.OutputSHA256))
	}
}

// run measures one workload: the end-to-end reps, the traced rep, or both.
func (r *runner) run(w workloadDef, endToEndRun, tracedRun bool) (*workloadResult, error) {
	wr := &workloadResult{}
	began := time.Now()
	reps, budget := minReps, r.seconds
	if !endToEndRun {
		reps, budget = traceBaseReps, 0
	}
	values := make(map[string][]float64)
	add := func(name string, v float64) { values[name] = append(values[name], v) }
	var measured float64
	for n := 0; n < reps || (measured < budget && time.Since(began) < runCap); n++ {
		rep, err := r.rep(w, modeTimed)
		if err != nil {
			return nil, err
		}
		wr.fold(rep)
		measured += rep.WallS
		speed := hostSpeed(rep)
		add("host_speed", speed)
		add("setup_raw_s", rep.SetupS)
		add("wall_raw_s", rep.WallS)
		add("setup_s", rep.SetupS*speed)
		add("wall_s", rep.WallS*speed)
		add("throughput_per_s", ratio(rep.Units, rep.WallS*speed))
		add("peak_rss_mb", rep.PeakRSSMB)
		add("disk_bytes_per_entry", ratio(float64(rep.DiskBytes), float64(rep.EntriesStored)))
		add("passed_share", 1-ratio(float64(rep.Failed), float64(rep.Attempted)))
	}
	if endToEndRun {
		wr.EndToEnd = make(map[string]stat, len(endToEnd))
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = newStat(m.Unit, values[m.Name])
		}
		wr.Raw = map[string]stat{
			"host_speed":  newStat("ratio", values["host_speed"]),
			"setup_raw_s": newStat("s", values["setup_raw_s"]),
			"wall_raw_s":  newStat("s", values["wall_raw_s"]),
		}
	}
	if tracedRun {
		traced, err := r.rep(w, modeTraced)
		if err != nil {
			return nil, err
		}
		wr.fold(traced)
		wr.PerLayer = make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = traced.Layers[m.Name]
		}
		base := newStat("s", values["wall_s"]).Median
		wr.PerLayer["harness.host_speed"] = hostSpeed(traced)
		wr.PerLayer["harness.trace_overhead_pct"] = 100 * (traced.WallS*hostSpeed(traced) - base) / base
		if w.name == "scenario_serial" {
			sharded, err := r.rep(w, modeSharded)
			if err != nil {
				return nil, err
			}
			// The sharded engine agrees with the serial one statistically,
			// not byte for byte, so its checks count and its hash does not.
			wr.Attempted += sharded.Attempted
			wr.Failed += sharded.Failed
			wr.Failures = append(wr.Failures, sharded.Failures...)
			for _, name := range shardedLayerNames {
				wr.PerLayer[name] = sharded.Layers[name]
			}
			wr.PerLayer["engine.sharded_wall_ratio"] = sharded.WallS * hostSpeed(sharded) / base
		}
	}
	wr.Correct = wr.Failed == 0
	return wr, nil
}

// print lists every metric by name with its unit.
func (wr *workloadResult) print(f *os.File, w workloadDef) {
	fmt.Fprintf(f, "== %s (throughput counts %s) ==\n", w.name, w.unit)
	for _, m := range endToEnd {
		if s, ok := wr.EndToEnd[m.Name]; ok {
			fmt.Fprintf(f, "%-34s %14.6g %-6s median of n=%d, min %.6g, max %.6g (%s is better, bound %g %%)\n",
				m.Name, s.Median, s.Unit, s.N, s.Min, s.Max, m.Better, 100*m.Bound)
		}
	}
	for _, name := range sortedKeys(wr.Raw) {
		s := wr.Raw[name]
		fmt.Fprintf(f, "%-34s %14.6g %-6s median of n=%d, min %.6g, max %.6g\n", name, s.Median, s.Unit, s.N, s.Min, s.Max)
	}
	if wr.PerLayer != nil {
		for _, m := range perLayer {
			fmt.Fprintf(f, "%-34s %14.6g %s\n", m.Name, wr.PerLayer[m.Name], m.Unit)
		}
	}
	fmt.Fprintf(f, "%-34s %s\n", "output_sha256", wr.OutputSHA256)
	fmt.Fprintf(f, "%-34s %d of %d operations failed\n", "checks", wr.Failed, wr.Attempted)
	for _, msg := range wr.Failures {
		fmt.Fprintf(f, "  FAILED: %s\n", msg)
	}
}

// resultLine renders the driver's result object: the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one.
func (wr *workloadResult) resultLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = value{wr.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{wr.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	return string(line)
}

// hostStamp says what produced a results file: hardware, toolchain, commit.
type hostStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Date       string `json:"date"`
}

func stampHost() hostStamp {
	h := hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	h.Commit, h.Dirty = gitState()
	return h
}

// cpuModel reads the processor's name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitState reports the checkout's commit and whether it has uncommitted
// changes; a checkout that is not a git repository reads "unknown".
func gitState() (commit string, dirty bool) {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(head)), err != nil || len(bytes.TrimSpace(status)) > 0
}
