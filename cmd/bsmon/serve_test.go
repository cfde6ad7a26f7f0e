package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
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
	done := startRun([]string{"-out", dir, "-spec", writeSpec(t, nil), "-hours", "2000", "-rotate", "30m",
		"-serve-addr", "127.0.0.1:0"})
	// Let the world build and at least one run step complete.
	time.Sleep(2 * time.Second)
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

	// Discover the ephemeral address.
	var addr string
	for i := 0; i < 200 && addr == ""; i++ {
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v", err)
		case <-time.After(100 * time.Millisecond):
		}
		if blob, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(blob))
		}
	}
	if addr == "" {
		t.Fatal("daemon never wrote -addr-file")
	}
	base := "http://" + addr

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}

	// Poll /metrics until at least two closed windows of the traffic report
	// are published and retention has expired at least one segment.
	var metrics string
	deadline := time.Now().Add(90 * time.Second)
	for {
		metrics = get("/metrics")
		twoWindows := strings.Contains(metrics, `report_window_metric{report="traffic",metric="dedup_entries",window="0"}`) &&
			strings.Contains(metrics, `report_window_metric{report="traffic",metric="dedup_entries",window="1"}`)
		expired := false
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, "ingest_retention_expired_segments_total ") &&
				!strings.HasSuffix(line, " 0") {
				expired = true
			}
		}
		if twoWindows && expired {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never published 2 windows + retention (twoWindows=%v expired=%v)", twoWindows, expired)
		}
		time.Sleep(200 * time.Millisecond)
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
	var snap report.WindowSnapshot
	if err := json.Unmarshal([]byte(get("/reports")), &snap); err != nil {
		t.Fatalf("bad /reports payload: %v", err)
	}
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
