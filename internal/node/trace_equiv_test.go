package node

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bitswapmon/internal/dht"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
)

// tracedFetchSpans builds the same tiny cluster on the given engine, runs a
// set of traced DAG fetches and returns the recorded spans plus the set of
// sampled root trace IDs.
//
// The scenario is laid out on the sharded engine's lookahead grid: a Fixed
// latency model equal to the lookahead window and all request offsets
// multiples of it, so every event lands exactly on a window boundary. On that
// grid the sharded engine's window-start quantization coincides with exact
// event times, which is what makes span-level (not just statistical)
// equivalence a fair expectation.
func tracedFetchSpans(t *testing.T, mk func(start time.Time, seed int64, lm *simnet.LatencyModel) engine.Engine) ([]otrace.Span, map[uint64]bool) {
	t.Helper()
	const seed = 7
	lm := simnet.Fixed(5 * time.Millisecond)
	net := mk(t0, seed, lm)
	tracer := otrace.New(otrace.Config{Sample: 0.6, Seed: seed})
	net.SetTracer(tracer)

	rng := net.NewRand("cluster")
	var nodes []*Node
	for i := 0; i < 6; i++ {
		id := simnet.RandomNodeID(rng)
		nd, err := New(net, id, fmt.Sprintf("10.9.0.%d:4001", i), simnet.RegionUS, Config{ChunkSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	boot := []dht.PeerInfo{nodes[0].Info()}
	for _, nd := range nodes {
		nd.Start(boot)
		net.Run(100 * time.Millisecond)
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if err := net.Connect(nodes[i].ID, nodes[j].ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	net.Run(2 * time.Second)

	content := bytes.Repeat([]byte("0123456789abcdef"), 40) // 10 chunks
	root, err := nodes[0].Publish(content)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(5 * time.Second)

	// Staggered traced fetches from every non-publisher node, issued as the
	// requester's own event code the way the workload does.
	sampled := make(map[uint64]bool)
	for i, nd := range nodes[1:] {
		nd := nd
		trace := otrace.TraceID(seed, nd.ID[:], uint64(i+1))
		if !tracer.ShouldSample(trace) {
			continue
		}
		sampled[trace] = true
		net.AfterOn(nd.ID, time.Duration(i+1)*time.Second, func() {
			span := tracer.Root(trace, "request", nd.ID.String(), net.EventTime(nd.ID))
			nd.FetchTraced(span.Ctx(), root, func(ok bool) {
				if ok {
					span.End(net.EventTime(nd.ID))
				} else {
					span.EndDropped(net.EventTime(nd.ID))
				}
			})
		})
	}
	if len(sampled) == 0 || len(sampled) == len(nodes)-1 {
		t.Fatalf("degenerate sampling (%d of %d): the equivalence check would not exercise head-sampling", len(sampled), len(nodes)-1)
	}
	net.Run(30 * time.Second)
	return tracer.Spans(), sampled
}

// spanKey identifies a span across engines; WallNs is host-clock self time
// and deliberately excluded from the comparison.
type spanKey struct {
	Trace, ID uint64
}

type spanBody struct {
	Parent         uint64
	Name, Node     string
	StartNs, EndNs int64
	QueueNs        int64
	Drop, Async    bool
}

// indexSpans returns span bodies and multiplicities by key. Identical hop
// spans can legitimately share a key: RecordHop carries no per-send key, so
// two same-named hops from one parent event at the same send time collide by
// construction — they are the same multiset element, and equivalence must
// count them, not reject them. Two DIFFERENT bodies under one key would be a
// real ID collision and fail the test.
func indexSpans(t *testing.T, spans []otrace.Span) (map[spanKey]spanBody, map[spanKey]int) {
	t.Helper()
	bodies := make(map[spanKey]spanBody, len(spans))
	counts := make(map[spanKey]int, len(spans))
	for _, s := range spans {
		k := spanKey{s.Trace, s.ID}
		b := spanBody{s.Parent, s.Name, s.Node, s.StartNs, s.EndNs, s.QueueNs, s.Drop, s.Async}
		if prev, dup := bodies[k]; dup && prev != b {
			t.Errorf("span key %+v held by two distinct spans:\n  %+v\n  %+v", k, prev, b)
		}
		bodies[k] = b
		counts[k]++
	}
	return bodies, counts
}

// TestTraceSerialShardedEquivalence requires the two engines to record the
// same trace forest for the same seed on a lookahead-aligned scenario: the
// same sampled trace IDs, and for every span the same parent, stage, node and
// virtual-time bounds. This is the tracing analogue of the engines' aggregate
// equivalence — it pins down that sampling is engine-independent and that the
// sharded engine's send anchoring matches the serial engine's exact
// now+delay semantics.
func TestTraceSerialShardedEquivalence(t *testing.T) {
	serialSpans, serialSampled := tracedFetchSpans(t, func(start time.Time, seed int64, lm *simnet.LatencyModel) engine.Engine {
		return simnet.New(start, seed, lm)
	})
	if len(serialSpans) == 0 {
		t.Fatal("serial run recorded no spans")
	}
	serial, serialCounts := indexSpans(t, serialSpans)
	for _, trees := range [][]otrace.Tree{otrace.BuildTrees(serialSpans)} {
		for _, tree := range trees {
			if err := tree.CheckNesting(); err != nil {
				t.Errorf("serial nesting: %v", err)
			}
		}
	}

	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			shardedSpans, shardedSampled := tracedFetchSpans(t, func(start time.Time, seed int64, lm *simnet.LatencyModel) engine.Engine {
				return simnet.NewSharded(start, seed, simnet.ShardedConfig{Shards: shards, Latency: lm})
			})
			if len(shardedSampled) != len(serialSampled) {
				t.Fatalf("sampled trace sets differ in size: serial %d, sharded %d", len(serialSampled), len(shardedSampled))
			}
			for tr := range serialSampled {
				if !shardedSampled[tr] {
					t.Errorf("trace %016x sampled on serial but not sharded", tr)
				}
			}
			for _, tree := range otrace.BuildTrees(shardedSpans) {
				if err := tree.CheckNesting(); err != nil {
					t.Errorf("sharded nesting: %v", err)
				}
			}
			sharded, shardedCounts := indexSpans(t, shardedSpans)
			if len(shardedSpans) != len(serialSpans) {
				t.Errorf("span counts differ: serial %d, sharded %d", len(serialSpans), len(shardedSpans))
			}
			for k, n := range serialCounts {
				if shardedCounts[k] != n {
					t.Errorf("span %s multiplicity differs: serial %d, sharded %d", serial[k].Name, n, shardedCounts[k])
				}
			}
			missing, mismatched := 0, 0
			for k, sb := range serial {
				hb, ok := sharded[k]
				if !ok {
					missing++
					if missing <= 5 {
						t.Errorf("span %s@%s [%d,%d] missing from sharded run", sb.Name, sb.Node, sb.StartNs, sb.EndNs)
					}
					continue
				}
				if hb != sb {
					mismatched++
					if mismatched <= 5 {
						t.Errorf("span %s@%s differs:\n  serial  %+v\n  sharded %+v", sb.Name, sb.Node, sb, hb)
					}
				}
			}
			for k, hb := range sharded {
				if _, ok := serial[k]; !ok {
					missing++
					if missing <= 5 {
						t.Errorf("extra sharded span %s@%s [%d,%d]", hb.Name, hb.Node, hb.StartNs, hb.EndNs)
					}
				}
			}
			if missing > 5 || mismatched > 5 {
				t.Errorf("…and more: %d missing/extra, %d mismatched in total", missing, mismatched)
			}
		})
	}
}
