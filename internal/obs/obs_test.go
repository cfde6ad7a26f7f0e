package obs

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same name returns the same underlying metric.
	if r.Counter("c_total", "a counter").Value() != 42 {
		t.Fatal("re-registering a counter did not return the existing one")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", linearBuckets(0, 1, 3))
	cv := r.CounterVec("cv_total", "", "l")
	gv := r.GaugeVec("gv", "", "l")
	hv := r.HistogramVec("hv", "", nil, "l")
	// Every call below must be a no-op, not a panic.
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	cv.With("a").Inc()
	gv.With("a").Set(3)
	hv.With("a").Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics accumulated state")
	}
	if !math.IsNaN(quantile(h, 0.5)) {
		t.Fatal("nil histogram quantile should be NaN")
	}
	if _, err := r.WriteTo(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering dup as a gauge did not panic")
		}
	}()
	r.Gauge("dup", "")
}

// TestExpositionGolden pins the exact text-format output: stable family and
// child ordering, HELP/TYPE lines, cumulative histogram buckets.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("bsmon_entries_total", "Entries ingested.").Add(7)
	v := r.GaugeVec("bsmon_depth", "Queue depth.", "shard")
	v.With("1").Set(3)
	v.With("0").Set(2.5)
	h := r.Histogram("bsmon_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP bsmon_depth Queue depth.
# TYPE bsmon_depth gauge
bsmon_depth{shard="0"} 2.5
bsmon_depth{shard="1"} 3
# HELP bsmon_entries_total Entries ingested.
# TYPE bsmon_entries_total counter
bsmon_entries_total 7
# HELP bsmon_lat_seconds Latency.
# TYPE bsmon_lat_seconds histogram
bsmon_lat_seconds_bucket{le="0.1"} 1
bsmon_lat_seconds_bucket{le="1"} 2
bsmon_lat_seconds_bucket{le="+Inf"} 3
bsmon_lat_seconds_sum 5.55
bsmon_lat_seconds_count 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}

	// Output is byte-identical across invocations (stable ordering).
	var sb2 strings.Builder
	if _, err := r.WriteTo(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Error("exposition differs between invocations")
	}

	if errs := validatePrometheusText(sb.String()); len(errs) > 0 {
		t.Errorf("exposition not parseable as Prometheus text format: %v", errs)
	}
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// validatePrometheusText is a minimal text-format (0.0.4) parser: every line
// must be a HELP/TYPE comment or a well-formed sample whose metric name
// belongs to the most recently typed family, and sample values must parse.
func validatePrometheusText(text string) []string {
	var errs []string
	typed := map[string]string{}
	lastType := ""
	sc := bufio.NewScanner(strings.NewReader(text))
	line := 0
	for sc.Scan() {
		line++
		l := sc.Text()
		if l == "" {
			continue
		}
		if strings.HasPrefix(l, "# HELP ") || strings.HasPrefix(l, "# TYPE ") {
			parts := strings.SplitN(l, " ", 4)
			if len(parts) < 4 {
				errs = append(errs, fmt.Sprintf("line %d: short comment %q", line, l))
				continue
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = parts[3]
				lastType = parts[2]
			}
			continue
		}
		if strings.HasPrefix(l, "#") {
			continue
		}
		m := sampleRe.FindStringSubmatch(l)
		if m == nil {
			errs = append(errs, fmt.Sprintf("line %d: unparseable sample %q", line, l))
			continue
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				errs = append(errs, fmt.Sprintf("line %d: sample %q without TYPE", line, name))
			} else if base != lastType {
				errs = append(errs, fmt.Sprintf("line %d: %q out of family order", line, name))
			}
		}
		if m[2] != "" {
			for _, pair := range strings.Split(strings.Trim(m[2], "{}"), ",") {
				if !labelRe.MatchString(pair) {
					errs = append(errs, fmt.Sprintf("line %d: bad label pair %q", line, pair))
				}
			}
		}
		if _, err := parseSampleValue(m[3]); err != nil {
			errs = append(errs, fmt.Sprintf("line %d: bad value %q", line, m[3]))
		}
	}
	return errs
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// TestHistogramQuantileAccuracy checks the interpolated quantile estimate
// against reference distributions: the error must stay within one bucket
// width.
func TestHistogramQuantileAccuracy(t *testing.T) {
	// Uniform [0, 1000) with 20 buckets of width 50.
	h := newHistogram(linearBuckets(50, 50, 20))
	rng := rand.New(rand.NewSource(1))
	const n = 100000
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64() * 1000
		h.Observe(values[i])
	}
	sort.Float64s(values)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := quantile(h, q)
		want := values[int(q*float64(n-1))]
		if math.Abs(got-want) > 50 {
			t.Errorf("uniform q%.2f: got %.1f, want %.1f (tolerance 50)", q, got, want)
		}
	}

	// Exponential latencies against exponential buckets.
	hexp := newHistogram(ExponentialBuckets(1e-3, 2, 16))
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = rng.ExpFloat64() * 0.05 // mean 50ms
		hexp.Observe(lat[i])
	}
	sort.Float64s(lat)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := quantile(hexp, q)
		want := lat[int(q*float64(n-1))]
		// Tolerance: the containing bucket's width (bounds double).
		if got < want/2-1e-3 || got > want*2+1e-3 {
			t.Errorf("exp q%.2f: got %.4f, want %.4f", q, got, want)
		}
	}

	if got := h.Count(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	if math.IsNaN(quantile(h, 0.5)) {
		t.Fatal("quantile NaN on populated histogram")
	}
}

// TestConcurrentHammering drives counters, gauges, histograms and the
// exposition path from many goroutines at once; run under -race this is the
// data-race proof, and the final counts must still be exact.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	g := r.Gauge("hammer_gauge", "")
	h := r.Histogram("hammer_seconds", "", ExponentialBuckets(1e-6, 10, 8))
	cv := r.CounterVec("hammer_vec_total", "", "worker")

	const workers = 8
	const perWorker = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := cv.With(strconv.Itoa(w))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%1000) * 1e-5)
				mine.Inc()
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if _, err := r.WriteTo(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %g, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := cv.With(strconv.Itoa(w)).Value(); got != perWorker {
			t.Errorf("vec child %d = %d, want %d", w, got, perWorker)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "").Add(3)
	r.GaugeVec("snap_g", "", "k").With("v").Set(1.5)
	r.Histogram("snap_h", "", linearBuckets(1, 1, 2)).Observe(1.5)
	snap := r.Snapshot()
	if snap["snap_total"] != 3 {
		t.Errorf("snap_total = %g", snap["snap_total"])
	}
	if snap[`snap_g{k="v"}`] != 1.5 {
		t.Errorf("snap_g = %g", snap[`snap_g{k="v"}`])
	}
	if snap["snap_h_count"] != 1 || snap["snap_h_sum"] != 1.5 {
		t.Errorf("histogram snapshot: %v", snap)
	}
}

// TestServe exercises the metrics+pprof mux end to end on an ephemeral port.
func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve_total", "").Add(5)
	srv, err := ServeWith("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != TextContentType {
		t.Errorf("content type = %q", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "serve_total 5") {
		t.Errorf("metrics body missing counter:\n%s", sb.String())
	}

	// pprof shares the mux.
	pp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline: %s", pp.Status)
	}
}

// TestQuantileOverflowClamp pins the +Inf-bucket behaviour: observations
// beyond the last finite bound land in the overflow bucket, and quantiles
// that fall there clamp to the last finite bound instead of interpolating
// toward infinity.
func TestQuantileOverflowClamp(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for i := 0; i < 100; i++ {
		h.Observe(1e9) // far beyond the last finite bound
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := quantile(h, q); got != 2 {
			t.Errorf("Quantile(%v) = %v, want clamp to last finite bound 2", q, got)
		}
	}
	// A mixed distribution still clamps once the rank crosses into overflow.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(0.5)
	h2.Observe(3)
	h2.Observe(4)
	if got := quantile(h2, 0.99); got != 2 {
		t.Errorf("mixed Quantile(0.99) = %v, want 2", got)
	}
}

// TestServeErrLatch kills the accept loop out from under a running server
// and checks the failure is latched: Err turns non-nil and Close returns it
// rather than dropping it.
func TestServeErrLatch(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("healthy server reports Err = %v", err)
	}
	srv.ln.Close() // accept loop fails with "use of closed network connection"
	<-srv.done
	if err := srv.Err(); err == nil {
		t.Fatal("Err = nil after accept-loop failure")
	}
	if err := srv.Close(); err == nil {
		t.Fatal("Close = nil, want the latched serve error")
	}
}

// TestServeCleanClose pins the orderly path: a server closed before any
// failure reports no error from either Err or Close.
func TestServeCleanClose(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("Err after clean close = %v, want nil", err)
	}
}

// quantile estimates h's q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket containing the target rank — the same estimate a
// Prometheus histogram_quantile() produces. The error is bounded by the
// width of that bucket; observations beyond the last finite bound clamp to
// it. Returns NaN on an empty (or nil) histogram.
func quantile(h *Histogram, q float64) float64 {
	if h == nil || h.total.Load() == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.total.Load()
	rank := q * float64(total)
	cum := uint64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: the last finite bound is the best estimate.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			return lo + (hi-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// linearBuckets returns n bounds start, start+width, …
func linearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}
