package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/report"
)

// startRun launches run(args) in the background and returns a channel with
// its result. The caller must have its own SIGTERM subscription installed
// first, so a self-signal can never hit the default (fatal) handler.
func startRun(args []string) <-chan error {
	done := make(chan error, 1)
	go func() { done <- run(args) }()
	return done
}

// signalUntilDone sends SIGTERM to the test process until run returns: the
// first signal can race run's own signal.NotifyContext installation, and
// the test's subscription absorbs every delivery either way.
func signalUntilDone(t *testing.T, done <-chan error) error {
	t.Helper()
	deadline := time.After(2 * time.Minute)
	for {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			return err
		case <-deadline:
			t.Fatal("run did not stop on SIGTERM")
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// reopenClean opens a segment store directory and asserts an interrupted
// run left it sealed (no skipped files) and queryable.
func reopenClean(t *testing.T, dir string) *ingest.SegmentStore {
	t.Helper()
	store, err := ingest.OpenSegmentStore(dir, ingest.SegmentOptions{})
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	if sk := store.Skipped(); len(sk) != 0 {
		t.Fatalf("%s holds unsealed leftovers after shutdown: %v", dir, sk)
	}
	if store.Totals().Entries == 0 {
		t.Fatalf("%s reopened empty", dir)
	}
	it, err := store.Query(time.Time{}, time.Time{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	entries, err := ingest.Drain(it)
	if err != nil {
		t.Fatalf("query reopened store: %v", err)
	}
	if len(entries) != store.Totals().Entries {
		t.Fatalf("query returned %d entries, totals say %d", len(entries), store.Totals().Entries)
	}
	return store
}

// serveBase waits for the daemon to write its -addr-file and returns the
// base URL it serves on.
func serveBase(t *testing.T, addrFile string, done <-chan error) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(100 * time.Millisecond):
		}
		// The daemon writes the address and a newline in one call; a read
		// without the newline caught the write half done.
		if blob, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(blob), "\n") {
			return "http://" + strings.TrimSpace(string(blob))
		}
	}
	t.Fatal("daemon never wrote -addr-file")
	return ""
}

// httpGet fetches url and returns its body, failing the test on any error
// or non-200 status.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// reportsSnapshot decodes the daemon's /reports payload. Unlike /metrics,
// which serves the process-wide registry, it describes this run alone.
func reportsSnapshot(t *testing.T, base string) report.WindowSnapshot {
	t.Helper()
	var snap report.WindowSnapshot
	if err := json.Unmarshal([]byte(httpGet(t, base+"/reports")), &snap); err != nil {
		t.Fatalf("bad /reports payload: %v", err)
	}
	return snap
}

// waitFor polls cond every 200 ms until it holds, failing the test if the
// daemon exits or 90 s pass first.
func waitFor(t *testing.T, done <-chan error, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(90 * time.Second)
	for !cond() {
		select {
		case err := <-done:
			t.Fatalf("daemon exited before %s: %v", what, err)
		case <-deadline:
			t.Fatalf("daemon never reached %s", what)
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// expiredSegments reads ingest_retention_expired_segments_total from a
// /metrics scrape (0 when absent).
func expiredSegments(t *testing.T, metrics string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, "ingest_retention_expired_segments_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("bad retention counter line %q: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// TestBsmonInterruptSealsStore kills the daemon mid-run and asserts the
// stores reopen sealed and queryable — the crash-consistency contract of the
// shutdown path.
func TestBsmonInterruptSealsStore(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM)
	defer signal.Stop(ch)

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	done := startRun([]string{"-out", dir, "-spec", writeSpec(t, nil), "-hours", "2000", "-rotate", "30m",
		"-serve-addr", "127.0.0.1:0", "-addr-file", addrFile})
	// Let the world build and at least one run step deliver entries.
	base := serveBase(t, addrFile, done)
	waitFor(t, done, "a window holding entries", func() bool {
		snap := reportsSnapshot(t, base)
		for _, w := range snap.Open {
			if w.Entries > 0 {
				return true
			}
		}
		for _, w := range snap.Closed {
			if w.Entries > 0 {
				return true
			}
		}
		return false
	})
	if err := signalUntilDone(t, done); err != nil {
		t.Fatalf("interrupted run failed: %v", err)
	}
	for _, mon := range []string{"us", "de"} {
		reopenClean(t, filepath.Join(dir, "mon-"+mon+".segments"))
	}
}

// TestBsmonServeEndToEnd is the live-scrape acceptance test: the daemon is
// scraped for window gauges and report JSON while running, then
// SIGTERMed; the stores must reopen clean and retention must have deleted
// only sealed segments entirely older than the policy horizon.
func TestBsmonServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM)
	defer signal.Stop(ch)

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	retain := 2 * time.Hour
	done := startRun([]string{
		"-out", dir, "-spec", writeSpec(t, nil), "-hours", "0",
		"-serve-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-rotate", "10m", "-window", "15m", "-windows-keep", "8",
		"-retain", retain.String(), "-maintain-every", "100ms",
		"-compact-run", "2", "-compact-small", "1000000",
		"-step", "5m", "-pace", "1ms",
	})
	base := serveBase(t, addrFile, done)
	get := func(path string) string { return httpGet(t, base+path) }

	// Wait until this run has closed two windows and its retention has
	// expired a segment. The counters on /metrics are process-wide, so
	// retention counts from its value at the first scrape.
	expiredAtStart := expiredSegments(t, get("/metrics"))
	var metrics string
	waitFor(t, done, "2 closed windows and a retention expiry", func() bool {
		if reportsSnapshot(t, base).ClosedTotal < 2 {
			return false
		}
		metrics = get("/metrics")
		return expiredSegments(t, metrics) > expiredAtStart
	})
	for _, slot := range []string{"0", "1"} {
		if !strings.Contains(metrics, `report_window_metric{report="traffic",metric="dedup_entries",window="`+slot+`"}`) {
			t.Errorf("missing traffic window gauge for slot %s", slot)
		}
	}
	if !strings.Contains(metrics, `report_window_start_seconds{window="0"}`) {
		t.Error("missing window start gauge")
	}
	// Each window is a report Driver, so the window reports carry the
	// per-report telemetry of any other pass.
	if !regexp.MustCompile(`(?m)^report_entries_observed_total\{report="traffic"\} [1-9]`).MatchString(metrics) {
		t.Error("window reports export no report_entries_observed_total")
	}
	if !strings.Contains(metrics, "otrace_spans_total") {
		t.Error("otrace counters not bridged into /metrics")
	}

	// /healthz is OK and /reports carries closed and open windows.
	if health := get("/healthz"); !strings.Contains(health, `"status":"ok"`) {
		t.Fatalf("unhealthy daemon: %s", health)
	}
	snap := reportsSnapshot(t, base)
	if snap.ClosedTotal < 2 || len(snap.Closed) < 2 {
		t.Fatalf("reports show %d closed windows, want >= 2", snap.ClosedTotal)
	}
	if snap.Closed[0].Metrics["traffic"] == nil {
		t.Fatal("closed window missing traffic metrics")
	}

	if err := signalUntilDone(t, done); err != nil {
		t.Fatalf("serve shutdown failed: %v", err)
	}

	// Durable window log: at least the closed windows, one JSON line each.
	if lines := windowLogLines(t, dir); lines < 2 {
		t.Fatalf("window log holds %d windows, want >= 2", lines)
	}

	// Stores reopen clean, and retention preserved exactly the segments not
	// entirely older than the final horizon (newest data minus -retain).
	for _, mon := range []string{"us", "de"} {
		store := reopenClean(t, filepath.Join(dir, "mon-"+mon+".segments"))
		segs := store.Segments()
		newest := segs[len(segs)-1].Footer.Last
		horizon := newest.Add(-retain)
		for i, seg := range segs {
			if i < len(segs)-1 && seg.Footer.Last.Before(horizon) {
				t.Errorf("%s: segment %d [%s, %s] is entirely older than horizon %s but survived",
					mon, seg.Seq, seg.Footer.First.Format(time.RFC3339), seg.Footer.Last.Format(time.RFC3339),
					horizon.Format(time.RFC3339))
			}
		}
	}
}
