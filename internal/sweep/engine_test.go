package sweep

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"bitswapmon/internal/attacks"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/workload"
)

// collected is one measured week — the window, the crawl and the probes —
// that kept what its monitors streamed: raw holds every monitor's entries
// in arrival order, unified what the UnifySink made of them.
type collected struct {
	*Measurement
	crawl   dht.CrawlResult
	probes  []attacks.ProbeResult
	raw     []trace.Entry
	unified []trace.Entry
}

// collectUnified runs Measure, Crawl and ProbeGateways with every monitor
// streaming into Tee(raw, UnifySink(unified)).
func collectUnified(t *testing.T, s ScenarioSpec) collected {
	t.Helper()
	raw, out := ingest.NewMemorySink(), ingest.NewMemorySink()
	uni := ingest.NewUnifySink(out)
	meas, err := Measure(s, s.Seed, func(w *workload.World) error {
		for _, m := range w.Monitors {
			m.SetSink(ingest.Tee(raw, uni))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s-%d: %v", s.Engine, s.Shards, err)
	}
	c := collected{Measurement: meas}
	if c.crawl, err = Crawl(meas.World); err != nil {
		t.Fatal(err)
	}
	c.probes = ProbeGateways(meas.World)
	for _, m := range meas.World.Monitors {
		if err := m.SinkErr(); err != nil {
			t.Fatalf("monitor %s sink: %v", m.Name, err)
		}
	}
	if err := uni.Flush(); err != nil {
		t.Fatal(err)
	}
	c.raw, c.unified = raw.Snapshot(), out.Snapshot()
	return c
}

// TestStreamingUnifyEqualsReference checks the streaming unifier against
// the batch reference on simulated traces: the per-monitor streams a run
// produced, unified by trace.Unify, must equal what the UnifySink attached
// to the same run emitted, entry for entry, on every engine.
func TestStreamingUnifyEqualsReference(t *testing.T) {
	for _, tc := range []struct {
		engine string
		shards int
	}{{"serial", 0}, {"sharded", 2}, {"sharded", 4}} {
		t.Run(fmt.Sprintf("%s-%d", tc.engine, tc.shards), func(t *testing.T) {
			s := tinySpec()
			s.Engine, s.Shards = tc.engine, tc.shards
			c := collectUnified(t, s)
			var us, de []trace.Entry
			for _, e := range c.raw {
				switch e.Monitor {
				case "us":
					us = append(us, e)
				case "de":
					de = append(de, e)
				default:
					t.Fatalf("entry from unknown monitor %q", e.Monitor)
				}
			}
			want := trace.Unify(us, de)
			if len(want) == 0 {
				t.Fatal("scenario produced no trace entries")
			}
			if len(c.unified) != len(want) {
				t.Fatalf("UnifySink emitted %d entries, trace.Unify %d", len(c.unified), len(want))
			}
			for i := range want {
				if c.unified[i] != want[i] {
					t.Fatalf("entry %d = %+v, trace.Unify has %+v", i, c.unified[i], want[i])
				}
			}
		})
	}
}

// traceHash renders the unified trace to CSV and hashes the bytes.
func traceHash(t *testing.T, entries []trace.Entry) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	cw := trace.NewCSVWriter(&buf)
	for _, e := range entries {
		if err := cw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestSerialEngineDeterminism runs the serial engine twice with the same
// seed and requires byte-identical trace CSVs: the property that makes the
// serial engine the reference implementation.
func TestSerialEngineDeterminism(t *testing.T) {
	var hashes [2][32]byte
	var counts [2]int
	for i := range hashes {
		c := collectUnified(t, tinySpec())
		hashes[i] = traceHash(t, c.unified)
		counts[i] = len(c.unified)
	}
	if counts[0] == 0 {
		t.Fatal("scenario produced no trace entries")
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("serial engine not deterministic: run CSV hashes differ (%d vs %d entries)",
			counts[0], counts[1])
	}
}

// TestSerialEngineSeedSensitivity guards against the degenerate way to pass
// the determinism test: different seeds must produce different traces.
func TestSerialEngineSeedSensitivity(t *testing.T) {
	other := tinySpec()
	other.Seed = 43
	c1 := collectUnified(t, tinySpec())
	c2 := collectUnified(t, other)
	if traceHash(t, c1.unified) == traceHash(t, c2.unified) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestOneShardEqualsSerial: serial is the one-shard case of the one
// engine, so `engine: sharded, shards: 1` must produce the serial run's
// unified trace byte for byte.
func TestOneShardEqualsSerial(t *testing.T) {
	serial := collectUnified(t, tinySpec())
	one := tinySpec()
	one.Engine, one.Shards = "sharded", 1
	sharded := collectUnified(t, one)
	if len(serial.unified) == 0 {
		t.Fatal("scenario produced no trace entries")
	}
	if traceHash(t, serial.unified) != traceHash(t, sharded.unified) {
		t.Fatalf("sharded-1 trace differs from serial (%d vs %d entries)", len(sharded.unified), len(serial.unified))
	}
}

// TestTracingLeavesRunUnchanged: tracing only records spans, so a run
// traced at any sample rate delivers the same messages and yields the same
// unified trace as the untraced run. Protocol code relies on this when it
// passes a zero trace context for untraced work.
func TestTracingLeavesRunUnchanged(t *testing.T) {
	base := collectUnified(t, tinySpec())
	if len(base.unified) == 0 {
		t.Fatal("scenario produced no trace entries")
	}
	wantHash := traceHash(t, base.unified)
	wantDelivered, _ := base.World.Net.Stats()
	for _, sample := range []float64{1, 0.25} {
		s := tinySpec()
		s.Trace, s.TraceSample = true, sample
		c := collectUnified(t, s)
		if got := traceHash(t, c.unified); got != wantHash {
			t.Errorf("sample %v: unified trace differs from untraced run (%d vs %d entries)",
				sample, len(c.unified), len(base.unified))
		}
		if got, _ := c.World.Net.Stats(); got != wantDelivered {
			t.Errorf("sample %v: delivered %d messages, untraced run %d", sample, got, wantDelivered)
		}
		if len(c.World.Net.Tracer().Spans()) == 0 {
			t.Errorf("sample %v: traced run recorded no spans", sample)
		}
	}
}

// TestShardedSerialEquivalence runs the same scenario on both engines and
// requires the aggregate monitor statistics to agree within tolerance at
// every supported shard count. Above one shard the engine is statistically
// — not bitwise — equivalent: latency draws come from per-shard RNG streams
// and cross-shard deliveries are floored at the lookahead, so entry-level
// traces differ while the aggregates the paper's evaluation rests on must
// not (one shard is byte-equal, see TestOneShardEqualsSerial). Shard
// counts beyond the node-population shape (16 shards for 150 nodes) also
// exercise idle-shard scheduling in the coordinator.
func TestShardedSerialEquivalence(t *testing.T) {
	type agg struct {
		unified, dedup   int
		onlineAvg        float64
		perMon           int
		union, inter     int
		probes, crawlLen int
	}
	collect := func(engineName string, shards int) agg {
		s := tinySpec()
		s.Engine = engineName
		s.Shards = shards
		d := collectUnified(t, s)
		a := agg{
			unified:   len(d.unified),
			dedup:     len(trace.Deduplicated(d.unified)),
			onlineAvg: d.OnlineAvg,
			probes:    len(d.probes),
			crawlLen:  len(d.crawl.Seen),
		}
		for _, smp := range d.Samples {
			for _, c := range smp.PerMonitor {
				a.perMon += c
			}
			a.union += smp.Union
			a.inter += smp.Intersection
		}
		return a
	}
	serial := collect("serial", 0)
	t.Logf("serial: %+v", serial)

	shardCounts := []int{1, 2, 4, 8, 16}
	if testing.Short() {
		shardCounts = []int{1, 4, 16}
	}
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			sharded := collect("sharded", n)
			t.Logf("sharded-%d: %+v", n, sharded)
			within := func(name string, a, b, tol float64) {
				if a == 0 && b == 0 {
					return
				}
				if a == 0 || b == 0 {
					t.Errorf("%s: one engine saw none (serial=%v sharded=%v)", name, a, b)
					return
				}
				if diff := (a - b) / a; diff > tol || diff < -tol {
					t.Errorf("%s: serial=%v sharded=%v differ by %.1f%% (tol %.0f%%)",
						name, a, b, 100*diff, 100*tol)
				}
			}
			within("unified entries", float64(serial.unified), float64(sharded.unified), 0.15)
			within("dedup entries", float64(serial.dedup), float64(sharded.dedup), 0.15)
			within("online average", serial.onlineAvg, sharded.onlineAvg, 0.10)
			within("monitor connections", float64(serial.perMon), float64(sharded.perMon), 0.10)
			within("union coverage", float64(serial.union), float64(sharded.union), 0.10)
			within("intersection", float64(serial.inter), float64(sharded.inter), 0.10)
			within("crawl seen", float64(serial.crawlLen), float64(sharded.crawlLen), 0.10)
			if serial.probes != sharded.probes {
				t.Errorf("gateway probes: serial=%d sharded=%d", serial.probes, sharded.probes)
			}
		})
	}
}
