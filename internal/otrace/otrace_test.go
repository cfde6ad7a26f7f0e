package otrace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func vt(ns int64) time.Time { return time.Unix(0, ns) }

func TestSamplingDeterministicAndRateful(t *testing.T) {
	a := New(Config{Sample: 0.25, Seed: 42})
	b := New(Config{Sample: 0.25, Seed: 42})
	other := New(Config{Sample: 0.25, Seed: 43})
	const n = 20000
	sampled, differ := 0, 0
	for i := uint64(1); i <= n; i++ {
		tr := TraceID(42, []byte{byte(i), byte(i >> 8)}, i)
		if a.ShouldSample(tr) != b.ShouldSample(tr) {
			t.Fatalf("same-seed tracers disagree on trace %d", tr)
		}
		if a.ShouldSample(tr) {
			sampled++
		}
		if a.ShouldSample(tr) != other.ShouldSample(tr) {
			differ++
		}
	}
	// The hash threshold should land near the requested rate.
	if frac := float64(sampled) / n; frac < 0.22 || frac > 0.28 {
		t.Errorf("sample rate %.3f, want ~0.25", frac)
	}
	if differ == 0 {
		t.Error("different seeds never disagree; seed is not salting the decision")
	}
	full := New(Config{Sample: 1, Seed: 7})
	for i := uint64(1); i < 100; i++ {
		if !full.ShouldSample(TraceID(7, []byte{1}, i)) {
			t.Fatal("Sample=1 must sample everything")
		}
	}
}

func TestTraceIDStableNonzeroDistinct(t *testing.T) {
	id := TraceID(1, []byte{0xab, 0xcd}, 3)
	if id != TraceID(1, []byte{0xab, 0xcd}, 3) {
		t.Fatal("TraceID is not deterministic")
	}
	if id == 0 {
		t.Fatal("TraceID returned 0 (reserved for unsampled)")
	}
	seen := map[uint64]bool{}
	for seq := uint64(0); seq < 1000; seq++ {
		v := TraceID(1, []byte{0xab, 0xcd}, seq)
		if seen[v] {
			t.Fatalf("TraceID collision at seq %d", seq)
		}
		seen[v] = true
	}
}

func TestSpanIDKeyDisambiguatesSiblings(t *testing.T) {
	// Sibling operations opened in one event share (trace, parent, name,
	// node, start); only the key separates them — the DAG-walk case.
	base := SpanID(9, 5, "bitswap.get", "n1", "cid-a", 100)
	if base != SpanID(9, 5, "bitswap.get", "n1", "cid-a", 100) {
		t.Fatal("SpanID is not deterministic")
	}
	if base == SpanID(9, 5, "bitswap.get", "n1", "cid-b", 100) {
		t.Fatal("siblings with different keys share a span ID")
	}
	// The name/node/key fields must not concatenate ambiguously.
	if SpanID(9, 5, "ab", "c", "", 100) == SpanID(9, 5, "a", "bc", "", 100) {
		t.Fatal("name/node boundary ambiguity")
	}
	if SpanID(9, 5, "a", "bc", "", 100) == SpanID(9, 5, "a", "b", "c", 100) {
		t.Fatal("node/key boundary ambiguity")
	}
}

func TestRingOverflowCountsDrops(t *testing.T) {
	tr := newTracer(Config{Sample: 1, Seed: 1}, 4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Trace: 1, ID: uint64(i + 1), Name: "x", StartNs: int64(i)})
	}
	if got := len(tr.Spans()); got != 4 {
		t.Fatalf("buffer kept %d spans, want cap 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset did not clear spans and drop count")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.ShouldSample(1) {
		t.Fatal("nil tracer sampled a trace")
	}
	h := tr.Root(1, "request", "n", vt(0))
	if h != nil {
		t.Fatal("nil tracer returned a live handle")
	}
	// All no-ops, must not panic.
	h.MarkAsync()
	h.End(vt(1))
	h.EndDropped(vt(1))
	if h.Ctx().Sampled() {
		t.Fatal("nil handle context claims sampled")
	}
	tr.Record(Span{})
	tr.RecordHop(nil, "n", 1, false)
	tr.Reset()
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer reports recorded state")
	}
	// Unsampled parent context: Start must return nil.
	live := New(Config{Sample: 1})
	if live.Start(Ctx{}, "x", "n", vt(0)) != nil {
		t.Fatal("Start under an unsampled context returned a handle")
	}
}

func TestSpanLifecycleAndClamps(t *testing.T) {
	tr := New(Config{Sample: 1, Seed: 1})
	root := tr.Root(77, "request", "gw", vt(100))
	child := tr.Start(root.Ctx(), "gateway.fetch", "gw", vt(110))
	child.End(vt(50)) // end before start: clamps to start
	root.End(vt(500))
	tr.RecordHop(&HopRef{Ctx: root.Ctx(), Name: "send.block", SendNs: 200, QueueNs: 7}, "n2", 150, true)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if got := byName["gateway.fetch"]; got.EndNs != got.StartNs {
		t.Errorf("End before start not clamped: [%d,%d]", got.StartNs, got.EndNs)
	}
	if got := byName["gateway.fetch"]; got.Parent != byName["request"].ID {
		t.Error("child span does not point at its parent")
	}
	hop := byName["send.block"]
	if !hop.Async || !hop.Drop || hop.QueueNs != 7 {
		t.Errorf("hop span flags wrong: %+v", hop)
	}
	if hop.EndNs != hop.StartNs {
		t.Errorf("hop end before send not clamped: [%d,%d]", hop.StartNs, hop.EndNs)
	}
}

func TestBuildTreesAndCheckNesting(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 10, Name: "request", StartNs: 0, EndNs: 100},
		{Trace: 1, ID: 11, Parent: 10, Name: "gateway.fetch", StartNs: 10, EndNs: 90},
		{Trace: 1, ID: 12, Parent: 11, Name: "send.want_have", StartNs: 20, EndNs: 400, Async: true},
		{Trace: 2, ID: 20, Name: "request", StartNs: 0, EndNs: 50},
	}
	trees := BuildTrees(spans)
	if len(trees) != 2 {
		t.Fatalf("BuildTrees grouped into %d trees, want 2", len(trees))
	}
	for _, tree := range trees {
		if err := tree.CheckNesting(); err != nil {
			t.Errorf("nesting check failed: %v", err)
		}
	}
	if p, ok := trees[0].Parent(spans[1]); !ok || p.ID != 10 {
		t.Error("Parent lookup failed for a recorded parent")
	}
	// A synchronous child escaping its parent must be reported...
	bad := BuildTrees([]Span{
		{Trace: 3, ID: 1, Name: "request", StartNs: 0, EndNs: 100},
		{Trace: 3, ID: 2, Parent: 1, Name: "late", StartNs: 50, EndNs: 200},
	})
	if err := bad[0].CheckNesting(); err == nil {
		t.Error("CheckNesting missed a synchronous out-of-bounds child")
	}
	// ...but the same shape marked async follows FollowsFrom and passes.
	ok := BuildTrees([]Span{
		{Trace: 3, ID: 1, Name: "request", StartNs: 0, EndNs: 100},
		{Trace: 3, ID: 2, Parent: 1, Name: "late", StartNs: 50, EndNs: 200, Async: true},
	})
	if err := ok[0].CheckNesting(); err != nil {
		t.Errorf("CheckNesting rejected an async straggler: %v", err)
	}
}

func TestChromeTraceExportShape(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 10, Name: "request", Node: "gw", StartNs: 1000, EndNs: 5000},
		{Trace: 1, ID: 11, Parent: 10, Name: "bitswap.get", Node: "n1", StartNs: 2000, EndNs: 4000, WallNs: 12, QueueNs: 3, Drop: true},
		{Trace: 2, ID: 20, Name: "request", Node: "gw", StartNs: 0, EndNs: 100},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Metadata["clock"] != "virtual" {
		t.Error("missing clock:virtual metadata")
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Cat != "bitswap" || ev.Ts != 2.0 || ev.Dur != 2.0 {
		t.Errorf("event shape wrong: %+v", ev)
	}
	if ev.Args["drop"] != true || ev.Args["parent"] == nil {
		t.Errorf("event args missing drop/parent: %v", ev.Args)
	}
	if doc.TraceEvents[0].Tid == doc.TraceEvents[2].Tid {
		t.Error("distinct traces share a track (tid)")
	}
}

func TestWriteFiles(t *testing.T) {
	tr := New(Config{Sample: 1, Seed: 1})
	h := tr.Root(5, "request", "gw", vt(10))
	h.End(vt(20))
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteFiles(path, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("Perfetto JSON unparsable: %v", err)
	}
	jl, err := os.ReadFile(path + ".jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(jl)), "\n")
	if len(lines) != 1 {
		t.Fatalf("JSONL has %d lines, want 1", len(lines))
	}
	var s Span
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil || s.Name != "request" {
		t.Fatalf("JSONL line unparsable or wrong: %v %+v", err, s)
	}
	// A nil tracer's spans still write loadable (empty) documents.
	var nilTr *Tracer
	p2 := filepath.Join(t.TempDir(), "empty.json")
	if err := WriteFiles(p2, nilTr.Spans()); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(p2); err != nil || !json.Valid(raw) {
		t.Fatalf("nil-tracer export invalid: %v", err)
	}
}
