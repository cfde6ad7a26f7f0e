// Command bsbench records the repository's performance trajectory in
// machine-readable form: it runs the hot-path benchmarks bare and with the
// obs instrumentation enabled (BSMON_BENCH_METRICS=1) — plus, for the replay
// drive, with request tracing enabled (BSMON_BENCH_TRACE=1) — and writes the
// parsed results to BENCH_dht.json, BENCH_engine.json, BENCH_ingest.json and
// BENCH_report.json, including the overhead each benchmark paid per mode and
// the host and commit that produced them.
//
// Usage:
//
//	bsbench [-out DIR] [-benchtime T] [-C MODULE_DIR] [-only RE]
//	        [-max-overhead PCT] [-max-trace-overhead PCT]
//
// BENCH_report.json holds the report-driver throughput (the "all figures at
// once" analysis path) and the windowed driver's (the daemon's sliding-window
// report path); BENCH_engine.json holds trace replay and the
// simulator event loop, with the traced replay recorded alongside the
// metrics columns; BENCH_ingest.json holds the segment-store write path and
// the streaming unifier; BENCH_dht.json holds the routing-table query behind
// every FIND_NODE / GET_PROVIDERS answer and one full crawl. -max-overhead
// makes bsbench exit nonzero when the instrumented ns/op regresses more than
// PCT percent over bare — the enforcement knob for the ≤5% instrumentation
// budget; -max-trace-overhead is the same knob for the traced-vs-untraced
// replay column. -only restricts the run to configured benchmarks matching a
// regexp (the CI smoke uses it to budget-check just the replay drive); a
// file is written only when all of its benchmarks ran, otherwise its
// measured rows are printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchFiles maps each output file to the benchmarks it records. A name
// also matches its sub-benchmarks (Name/sub), so BenchmarkEngineScaling
// records the whole serial/sharded scaling trajectory.
var benchFiles = map[string][]string{
	"BENCH_dht.json":    {"BenchmarkClosest", "BenchmarkCrawl"},
	"BENCH_report.json": {"BenchmarkReportDriver", "BenchmarkWindowedDriver"},
	"BENCH_engine.json": {"BenchmarkReplayDrive", "BenchmarkSimnetEventLoop", "BenchmarkEngineScaling"},
	"BENCH_ingest.json": {"BenchmarkIngestSegmentStore", "BenchmarkStreamUnify"},
}

// tracedBenches lists the benchmarks that honor BSMON_BENCH_TRACE: they get a
// third, traced run recorded next to the bare/instrumented pair.
var tracedBenches = map[string]bool{"BenchmarkReplayDrive": true}

// Measurement is one parsed benchmark line.
type Measurement struct {
	N            int     `json:"n"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
}

// Entry pairs a benchmark's bare and instrumented runs, plus the traced run
// for benchmarks that have one.
type Entry struct {
	Name    string       `json:"name"`
	Bare    *Measurement `json:"bare"`
	Metrics *Measurement `json:"metrics_enabled"`
	Traced  *Measurement `json:"traced,omitempty"`
	// OverheadPct is the instrumented ns/op regression over bare, in
	// percent; negative means the instrumented run measured faster (noise).
	OverheadPct float64 `json:"overhead_pct"`
	// TraceOverheadPct is the traced-vs-untraced regression for benchmarks
	// that run a traced mode (the otrace recording cost at its benchmark
	// sampling rate).
	TraceOverheadPct float64 `json:"trace_overhead_pct,omitempty"`
}

// File is one BENCH_*.json document. A row means nothing without the
// machine it was measured on (a shard curve taken on 2 cores cannot rise), so
// every document carries the host and the commit.
type File struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Benchtime  string  `json:"benchtime"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bsbench", flag.ContinueOnError)
	outDir := fs.String("out", ".", "directory for the BENCH_*.json files")
	benchtime := fs.String("benchtime", "2s", "go test -benchtime value")
	count := fs.Int("count", 3, "interleaved bare/instrumented rounds; the fastest of each benchmark is recorded")
	moduleDir := fs.String("C", ".", "module directory to run go test in")
	maxOverhead := fs.Float64("max-overhead", 0, "fail when instrumented ns/op regresses more than this percent (0 = record only)")
	maxTraceOverhead := fs.Float64("max-trace-overhead", 0, "fail when traced ns/op regresses more than this percent over untraced (0 = record only)")
	only := fs.String("only", "", "regexp restricting the run to matching configured benchmarks")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var filter *regexp.Regexp
	if *only != "" {
		var err error
		if filter, err = regexp.Compile(*only); err != nil {
			return fmt.Errorf("-only: %w", err)
		}
	}
	selected := func(name string) bool { return filter == nil || filter.MatchString(name) }

	var names, tracedNames []string
	for _, ns := range benchFiles {
		for _, n := range ns {
			if !selected(n) {
				continue
			}
			names = append(names, n)
			if tracedBenches[n] {
				tracedNames = append(tracedNames, n)
			}
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-only %q matches no configured benchmark", *only)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	pattern := "^(" + strings.Join(names, "|") + ")$"

	// Alternate bare, instrumented and traced invocations so all modes
	// sample the same machine conditions — on shared hardware, back-to-back
	// blocks of one mode read ambient load differences as overhead.
	bare := make(map[string]*Measurement)
	instrumented := make(map[string]*Measurement)
	traced := make(map[string]*Measurement)
	for round := 0; round < *count; round++ {
		b, err := runBenchmarks(*moduleDir, pattern, *benchtime, round, *count, "bare")
		if err != nil {
			return err
		}
		mergeFastest(bare, b)
		m, err := runBenchmarks(*moduleDir, pattern, *benchtime, round, *count, "instrumented")
		if err != nil {
			return err
		}
		mergeFastest(instrumented, m)
		if len(tracedNames) > 0 {
			tracePattern := "^(" + strings.Join(tracedNames, "|") + ")$"
			tm, err := runBenchmarks(*moduleDir, tracePattern, *benchtime, round, *count, "traced")
			if err != nil {
				return err
			}
			mergeFastest(traced, tm)
		}
	}

	stamp := File{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: benchProcs(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(*moduleDir),
		Benchtime:  *benchtime,
	}
	entries, err := emit(os.Stdout, *outDir, stamp, selected, bare, instrumented, traced)
	if err != nil {
		return err
	}
	var worst, worstTrace float64
	var worstName, worstTraceName string
	for _, e := range entries {
		if e.OverheadPct > worst {
			worst, worstName = e.OverheadPct, e.Name
		}
		if e.TraceOverheadPct > worstTrace {
			worstTrace, worstTraceName = e.TraceOverheadPct, e.Name
		}
	}
	if *maxOverhead > 0 && worst > *maxOverhead {
		return fmt.Errorf("%s instrumentation overhead %.1f%% exceeds budget %.1f%%", worstName, worst, *maxOverhead)
	}
	if *maxTraceOverhead > 0 && worstTrace > *maxTraceOverhead {
		return fmt.Errorf("%s tracing overhead %.1f%% exceeds budget %.1f%%", worstTraceName, worstTrace, *maxTraceOverhead)
	}
	return nil
}

// emit writes the BENCH file of every output whose configured benchmarks all
// ran. A file that -only cut short is printed to w instead: writing it would
// drop the rows this run did not measure. emit returns every row it wrote
// or printed.
func emit(w io.Writer, outDir string, stamp File, selected func(string) bool, bare, instrumented, traced map[string]*Measurement) ([]Entry, error) {
	var all []Entry
	for _, path := range slices.Sorted(maps.Keys(benchFiles)) {
		doc, complete := stamp, true
		for _, name := range benchFiles[path] {
			if !selected(name) {
				complete = false
				continue
			}
			// A configured name stands for itself plus any sub-benchmarks
			// (Name/sub). Sub-benchmarks skipped in this environment (e.g.
			// population sizes gated on CPU count) simply produce no line.
			matched := matchedNames(bare, name)
			if len(matched) == 0 {
				return nil, fmt.Errorf("benchmark %s missing from bare run", name)
			}
			for _, mn := range matched {
				b := bare[mn]
				m, ok := instrumented[mn]
				if !ok {
					return nil, fmt.Errorf("benchmark %s missing from instrumented run", mn)
				}
				e := Entry{Name: mn, Bare: b, Metrics: m}
				if b.NsPerOp > 0 {
					e.OverheadPct = (m.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
				}
				if tm, ok := traced[mn]; ok {
					e.Traced = tm
					if b.NsPerOp > 0 {
						e.TraceOverheadPct = (tm.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
					}
				}
				doc.Benchmarks = append(doc.Benchmarks, e)
			}
		}
		all = append(all, doc.Benchmarks...)
		if len(doc.Benchmarks) == 0 {
			continue
		}
		if !complete {
			blob, err := json.MarshalIndent(doc.Benchmarks, "", "  ")
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "%s not written: -only left some of its benchmarks out; measured rows:\n%s\n", path, blob)
			continue
		}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, err
		}
		full := filepath.Join(outDir, path)
		if err := os.WriteFile(full, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %s (%d benchmarks)\n", full, len(doc.Benchmarks))
	}
	return all, nil
}

// matchedNames returns the measured names covered by a configured benchmark
// name — the name itself and any "name/sub" sub-benchmarks — in sorted order.
func matchedNames(results map[string]*Measurement, name string) []string {
	var out []string
	for mn := range results {
		if mn == name || strings.HasPrefix(mn, name+"/") {
			out = append(out, mn)
		}
	}
	sort.Strings(out)
	return out
}

// mergeFastest folds one round's measurements into acc, keeping the lowest
// ns/op per benchmark.
func mergeFastest(acc, round map[string]*Measurement) {
	for name, m := range round {
		if prev, ok := acc[name]; !ok || m.NsPerOp < prev.NsPerOp {
			acc[name] = m
		}
	}
}

// runBenchmarks invokes go test -bench once in the given mode ("bare",
// "instrumented" or "traced") and parses the result lines.
func runBenchmarks(dir, pattern, benchtime string, round, rounds int, mode string) (map[string]*Measurement, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchmem", "-benchtime", benchtime, ".")
	cmd.Dir = dir
	cmd.Env = os.Environ()
	switch mode {
	case "instrumented":
		cmd.Env = append(cmd.Env, "BSMON_BENCH_METRICS=1")
	case "traced":
		cmd.Env = append(cmd.Env, "BSMON_BENCH_TRACE=1")
	}
	fmt.Printf("round %d/%d: %s benchmarks...\n", round+1, rounds, mode)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench (%s): %w\n%s", mode, err, out)
	}
	return parseBenchOutput(string(out))
}

// benchProcs is the GOMAXPROCS the benchmark processes run with: they
// inherit this process's environment.
func benchProcs() int {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
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

// gitCommit names the commit checked out in dir, with "+dirty" when the
// measured tree has changes that commit does not hold.
func gitCommit(dir string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	head, err := git("rev-parse", "--short=12", "HEAD")
	if err != nil {
		return "unknown"
	}
	if status, err := git("status", "--porcelain"); err != nil || status != "" {
		head += "+dirty"
	}
	return head
}

// stripProcSuffix removes the -GOMAXPROCS suffix go test appends to result
// lines. Only the exact effective GOMAXPROCS value is stripped: with
// GOMAXPROCS=1 no suffix is printed at all, and a blind trailing "-N" strip
// would eat the shard count from sub-benchmark names like "sharded-8".
func stripProcSuffix(name string) string {
	procs := benchProcs()
	if procs == 1 {
		return name
	}
	suffix := "-" + strconv.Itoa(procs)
	return strings.TrimSuffix(name, suffix)
}

// parseBenchOutput extracts benchmark result lines of the form
//
//	BenchmarkName-8  12  91972690 ns/op  217456 events/sec  37188956 B/op  422104 allocs/op
//
// into Measurements keyed by the bare benchmark name. Repeated lines for
// one name keep the fastest ns/op.
func parseBenchOutput(out string) (map[string]*Measurement, error) {
	results := make(map[string]*Measurement)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcSuffix(fields[0])
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		m := &Measurement{N: n}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q in %q: %w", fields[i], line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "events/sec":
				m.EventsPerSec = v
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if prev, ok := results[name]; !ok || m.NsPerOp < prev.NsPerOp {
			results[name] = m
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines in output:\n%s", out)
	}
	return results, nil
}
