package otrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// chromeEvent is one Chrome trace-event ("X" complete event), the format
// Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TsUs float64        `json:"ts"`
	DurU float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents []chromeEvent     `json:"traceEvents"`
	Metadata    map[string]string `json:"otherData,omitempty"`
}

// WriteChromeTrace writes spans as a Chrome trace-event JSON document.
// Timestamps are virtual microseconds; each trace gets its own track (tid)
// so the spans of one request nest visually in Perfetto.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	// Deterministic track assignment: traces ordered by first appearance in
	// the (already sorted) span slice.
	tids := make(map[uint64]int)
	for _, s := range spans {
		if _, ok := tids[s.Trace]; !ok {
			tids[s.Trace] = len(tids) + 1
		}
	}
	doc := chromeDoc{
		TraceEvents: make([]chromeEvent, 0, len(spans)),
		Metadata:    map[string]string{"clock": "virtual"},
	}
	for _, s := range spans {
		args := map[string]any{
			"trace": fmt.Sprintf("%016x", s.Trace),
			"span":  fmt.Sprintf("%016x", s.ID),
			"node":  s.Node,
		}
		if s.Parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", s.Parent)
		}
		if s.WallNs > 0 {
			args["wall_ns"] = s.WallNs
		}
		if s.QueueNs > 0 {
			args["queue_ns"] = s.QueueNs
		}
		if s.Drop {
			args["drop"] = true
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  spanCategory(s.Name),
			Ph:   "X",
			TsUs: float64(s.StartNs) / 1e3,
			DurU: float64(s.EndNs-s.StartNs) / 1e3,
			Pid:  1,
			Tid:  tids[s.Trace],
		})
		doc.TraceEvents[len(doc.TraceEvents)-1].Args = args
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// spanCategory groups span names into coarse Perfetto categories.
func spanCategory(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// WriteJSONL writes one span JSON object per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFiles exports spans to path (Chrome trace-event / Perfetto JSON) and
// path+".jsonl" (one span per line). No spans write empty documents.
func WriteFiles(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	jf, err := os.Create(path + ".jsonl")
	if err != nil {
		return err
	}
	if err := WriteJSONL(jf, spans); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

// Tree is one trace's spans indexed for nesting checks and breakdowns.
type Tree struct {
	Trace uint64
	Spans []Span // sorted by (start, id)
	byID  map[uint64]int
}

// BuildTrees groups spans by trace, preserving the deterministic span order.
func BuildTrees(spans []Span) []Tree {
	var trees []Tree
	var cur *Tree
	for _, s := range spans {
		if cur == nil || cur.Trace != s.Trace {
			trees = append(trees, Tree{Trace: s.Trace, byID: make(map[uint64]int)})
			cur = &trees[len(trees)-1]
		}
		cur.byID[s.ID] = len(cur.Spans)
		cur.Spans = append(cur.Spans, s)
	}
	for i := range trees {
		t := &trees[i]
		sort.Slice(t.Spans, func(a, b int) bool {
			if t.Spans[a].StartNs != t.Spans[b].StartNs {
				return t.Spans[a].StartNs < t.Spans[b].StartNs
			}
			return t.Spans[a].ID < t.Spans[b].ID
		})
		for j, s := range t.Spans {
			t.byID[s.ID] = j
		}
	}
	return trees
}

// Parent returns the parent span of s within the tree, if recorded.
func (t *Tree) Parent(s Span) (Span, bool) {
	if s.Parent == 0 {
		return Span{}, false
	}
	i, ok := t.byID[s.Parent]
	if !ok {
		return Span{}, false
	}
	return t.Spans[i], true
}

// CheckNesting verifies that every synchronous child span lies within its
// parent's virtual-time bounds, returning the first violation. Async spans
// (message flights, abandoned DHT work) follow FollowsFrom semantics — they
// are causally linked to a parent but not awaited by it, so a straggler HAVE
// reply or a cancel notification may end after the requester resolved.
func (t *Tree) CheckNesting() error {
	for _, s := range t.Spans {
		if s.Async {
			continue
		}
		p, ok := t.Parent(s)
		if !ok {
			continue
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("trace %016x: span %s [%d,%d] outside parent %s [%d,%d]",
				t.Trace, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
	return nil
}
