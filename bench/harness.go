package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/report"
	"bitswapmon/internal/trace"
)

// The sizes of one measured run, with the issue's value for each in
// brackets. The issue took its sizes from a prototype whose layers were
// slower than the real ones and expected reps of 5–9 s; these make one rep
// measure about 3 s on the 2-core host, so that five reps with their set-up
// and checks fit the driver's time cap (92 runs in 3420 s).
const (
	scenarioNodes  = 400
	scenarioWindow = 6 * time.Hour    // [12 h]
	scenarioWarmup = 30 * time.Minute // [1 h]

	captureRequests = 280_000 // [500 000]
	replayRequests  = 225_000 // [500 000, capture_analyze's feed]
	liveRequests    = 150_000 // [300 000]
	maintainEvery   = 50_000  // [100 000]
	oracleEntries   = 50_000

	feedPeers = 20_000
	feedCIDs  = 200_000
	// The feeds keep the virtual span the issue's sizes had (500 000
	// requests 100 ms apart, 300 000 requests 50 ms apart) and stretch the
	// spacing instead, so segment, window and compaction counts do not
	// depend on the request count.
	captureSpan = 14 * time.Hour
	liveSpan    = 4*time.Hour + 10*time.Minute

	liveRotation = 5 * time.Minute
	liveWidth    = time.Hour
	liveSlide    = 15 * time.Minute
	liveMinRun   = 4
)

// sizes are the size constants of one run, echoed into every results file.
type sizes struct {
	ScenarioNodes   int           `json:"scenario_nodes"`
	ScenarioWindow  time.Duration `json:"scenario_window_ns"`
	ScenarioWarmup  time.Duration `json:"scenario_warmup_ns"`
	CaptureRequests int           `json:"capture_requests"`
	ReplayRequests  int           `json:"replay_requests"`
	CaptureSpan     time.Duration `json:"capture_span_ns"`
	LiveRequests    int           `json:"live_requests"`
	LiveSpan        time.Duration `json:"live_span_ns"`
	MaintainEvery   int           `json:"maintain_every"`
	OracleEntries   int           `json:"oracle_entries"`
	Peers           int           `json:"feed_peers"`
	CIDs            int           `json:"feed_cids"`
}

// sizesFor returns the sizes of a measured run (scale 1) or of a test
// (scale 0.02): the amounts of work are multiplied by scale; populations
// (nodes, peers, CIDs), the feeds' virtual spans and the oracle's prefix
// stay fixed.
func sizesFor(scale float64) sizes {
	n := func(v int) int { return int(math.Round(float64(v) * scale)) }
	d := func(v time.Duration) time.Duration { return time.Duration(float64(v) * scale).Round(time.Second) }
	return sizes{
		ScenarioNodes:   scenarioNodes,
		ScenarioWindow:  d(scenarioWindow),
		ScenarioWarmup:  d(scenarioWarmup),
		CaptureRequests: n(captureRequests),
		ReplayRequests:  n(replayRequests),
		CaptureSpan:     captureSpan,
		LiveRequests:    n(liveRequests),
		LiveSpan:        liveSpan,
		MaintainEvery:   n(maintainEvery),
		OracleEntries:   oracleEntries,
		Peers:           feedPeers,
		CIDs:            feedCIDs,
	}
}

// repResult is what one child process (one rep of one workload) reports.
type repResult struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// CalS is the calibration work's time, the mean of one calibration
	// process before this rep's process and one after it; the parent fills
	// it in.
	CalS float64 `json:"cal_s"`
	// Units is the fixed input size throughput_per_s divides by wall_s:
	// simulated node-hours for scenario_serial, input entries elsewhere.
	Units         float64 `json:"units"`
	PeakRSSMB     float64 `json:"peak_rss_mb"`
	DiskBytes     int64   `json:"disk_bytes"`
	EntriesStored int64   `json:"entries_stored"`

	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Failures     []string `json:"failures,omitempty"`
	OutputSHA256 string   `json:"output_sha256"`

	// Layers holds the per-layer metrics of a traced rep.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// Layer clocks of the traced run. Each names one wrapped interface; the
// self times derived from them are in layerMetrics.
const (
	clockWrite     = "write"     // SegmentStore.Write
	clockStats     = "stats"     // OnlineStats.Write
	clockRead      = "read"      // QueryIter.Read
	clockUnify     = "unify"     // StreamUnifier.Read, reads included
	clockObserve   = "observe"   // report Driver / WindowedDriver Write
	clockUnifySink = "unifysink" // UnifySink.Write, window driver included
)

// layerClock accumulates the time spent inside one wrapped interface.
type layerClock struct {
	d time.Duration
	n int64
}

// timedSink charges every Write of dst to a layer clock. It exists only in
// the traced run; the end-to-end reps call dst directly.
type timedSink struct {
	dst ingest.Sink
	c   *layerClock
	// lat, when set, keeps every call's latency in ns for a percentile.
	lat *[]int32
	// max, when set, is raised to the slowest call during which *mark was
	// set (by a window-close hook); mark is cleared after each call.
	max  *time.Duration
	mark *bool
}

func (s *timedSink) Write(e trace.Entry) error {
	t0 := time.Now()
	err := s.dst.Write(e)
	d := time.Since(t0)
	s.c.d += d
	s.c.n++
	if s.lat != nil {
		*s.lat = append(*s.lat, int32(min(d, math.MaxInt32)))
	}
	if s.mark != nil && *s.mark {
		*s.mark = false
		*s.max = max(*s.max, d)
	}
	return err
}

// timedSource charges every Read of src to a layer clock.
type timedSource struct {
	src ingest.EntrySource
	c   *layerClock
}

func (s *timedSource) Read() (trace.Entry, error) {
	t0 := time.Now()
	e, err := s.src.Read()
	s.c.d += time.Since(t0)
	s.c.n++
	return e, err
}

// env is the state of one rep: its inputs' sizes, its scratch directory,
// whether layer tracing is on, and the measurements taken so far.
type env struct {
	seed int64
	sz   sizes
	dir  string
	// mode is how the rep is measured; traced is mode == modeTraced.
	mode   string
	traced bool

	clocks   map[string]*layerClock
	spans    map[string]time.Duration
	writeLat []int32
	// covered sums the spans inside the timed region; with looseClocks,
	// the layer clocks a workload runs outside any span, it is the part of
	// wall_s the layers account for.
	covered     time.Duration
	looseClocks []string
	inTimed     bool

	res repResult

	// Taken at the edges of the timed region.
	rusage0, rusage1 syscall.Rusage
	mem0, mem1       runtime.MemStats
	profile          string
}

// The ways a rep is measured. The sharded rep keeps the wrappers off: the
// sharded engine may run the two monitors' sinks on different goroutines.
// modeCalib is not a rep: the child runs the calibration work and nothing
// else.
const (
	modeTimed   = "timed"   // end to end: metrics, wrappers and profile off
	modeTraced  = "traced"  // subsystem metrics, timing wrappers and CPU profile on
	modeSharded = "sharded" // scenario on the sharded engine, subsystem metrics on
	modeCalib   = "calib"
)

func newEnv(seed int64, sz sizes, dir, mode string) *env {
	return &env{
		seed: seed, sz: sz, dir: dir, mode: mode, traced: mode == modeTraced,
		clocks: make(map[string]*layerClock),
		spans:  make(map[string]time.Duration),
		res:    repResult{Layers: make(map[string]float64)},
	}
}

func (v *env) clock(name string) *layerClock {
	c := v.clocks[name]
	if c == nil {
		c = &layerClock{}
		v.clocks[name] = c
	}
	return c
}

// sink wraps dst with a layer clock in the traced run and returns dst
// itself otherwise.
func (v *env) sink(clock string, dst ingest.Sink) ingest.Sink {
	if !v.traced {
		return dst
	}
	s := &timedSink{dst: dst, c: v.clock(clock)}
	if clock == clockWrite {
		s.lat = &v.writeLat
	}
	return s
}

// source is sink's read-side twin.
func (v *env) source(clock string, src ingest.EntrySource) ingest.EntrySource {
	if !v.traced {
		return src
	}
	return &timedSource{src: src, c: v.clock(clock)}
}

// span times one phase of a rep. Phases run one after another, so a phase's
// self time is its span minus the layer clocks that ran inside it.
func (v *env) span(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	v.spans[name] += d
	if v.inTimed {
		v.covered += d
	}
	return err
}

// setup runs and times everything that precedes the timed region.
func (v *env) setup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	v.res.SetupS = time.Since(t0).Seconds()
	return err
}

// timed runs the timed region: wall_s is its duration and peak_rss_mb the
// process high-water mark when it ends. The traced run also profiles it.
func (v *env) timed(fn func() error) error {
	if v.traced {
		v.profile = filepath.Join(v.dir, "cpu.pprof")
		f, err := os.Create(v.profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&v.mem0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &v.rusage0); err != nil {
		return err
	}
	v.inTimed = true
	t0 := time.Now()
	err := fn()
	v.res.WallS = time.Since(t0).Seconds()
	v.inTimed = false
	if v.traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &v.rusage1); err != nil {
		return err
	}
	runtime.ReadMemStats(&v.mem1)
	v.res.PeakRSSMB, err = peakRSSMB()
	return err
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// storeDir names a monitor's segment-store directory under the rep's
// scratch directory.
func (v *env) storeDir(role, monitor string) string {
	return filepath.Join(v.dir, role+"-"+monitor+".segments")
}

// openStores opens one fresh segment store per monitor.
func (v *env) openStores(role string, opts ingest.SegmentOptions) ([]*ingest.SegmentStore, error) {
	stores := make([]*ingest.SegmentStore, len(monitorNames))
	for m, name := range monitorNames {
		s, err := ingest.OpenSegmentStore(v.storeDir(role, name), opts)
		if err != nil {
			return nil, err
		}
		stores[m] = s
	}
	return stores, nil
}

// seal closes every store, as a capture does when it ends.
func (v *env) seal(stores []*ingest.SegmentStore) error {
	return v.span("seal", func() error {
		for _, s := range stores {
			if err := s.Close(); err != nil {
				return err
			}
		}
		return nil
	})
}

// analyze is the bsanalyze path: Query every store, merge and flag the
// streams with a StreamUnifier, and run the named reports in one pass. It
// returns the number of unified entries and the finalized reports.
func (v *env) analyze(stores []*ingest.SegmentStore, names []string, opts report.Options) (int, report.Results, error) {
	sources := make([]ingest.EntrySource, len(stores))
	for i, s := range stores {
		it, err := s.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			return 0, nil, err
		}
		defer it.Close()
		sources[i] = v.source(clockRead, it)
	}
	drv := report.NewDriver(true)
	if err := drv.AddByName(names, opts); err != nil {
		return 0, nil, err
	}
	var n int
	err := v.span("analyze", func() (err error) {
		n, err = ingest.Copy(v.sink(clockObserve, drv), v.source(clockUnify, ingest.NewStreamUnifier(sources...)))
		return err
	})
	if err != nil {
		return n, nil, err
	}
	var results report.Results
	err = v.span("finalize", func() (err error) {
		results, err = drv.Finalize()
		return err
	})
	return n, results, err
}

// registryReports lists every registered report except latency_breakdown,
// which needs a span recorder and so a traced simulation.
func registryReports() []string {
	var names []string
	for _, n := range report.Names() {
		if n != "latency_breakdown" {
			names = append(names, n)
		}
	}
	return names
}

// dirBytes sums the sizes of the regular files under the given directories.
func dirBytes(dirs ...string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// percentile returns the q-quantile (nearest rank) of xs, which it sorts.
func percentile(xs []int32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

// ratio is a/b, and 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
