// Package trace defines the monitoring trace model of Sec. IV of the paper:
// streams of (timestamp, node_ID, address, request_type, CID, flags) tuples,
// binary trace files, and the preprocessing that unifies multiple monitors'
// traces while marking inter-monitor duplicates and re-broadcasts.
package trace

import (
	"sort"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

// Flag marks preprocessing classifications (Sec. IV-B).
type Flag uint8

// Preprocessing flags.
const (
	// FlagInterMonitorDup marks an entry also received by a different
	// monitor within the 5 s window.
	FlagInterMonitorDup Flag = 1 << iota
	// FlagRebroadcast marks an entry repeating an earlier identical entry
	// at the same monitor within the 31 s window (the client re-broadcasts
	// unresolved wants every 30 s).
	FlagRebroadcast
)

// Windows used by Unify, from Sec. IV-B.
const (
	// InterMonitorWindow bounds the timestamp difference for two entries
	// at different monitors to count as the same broadcast.
	InterMonitorWindow = 5 * time.Second
	// RebroadcastWindow bounds the gap for same-monitor repetitions to
	// count as client re-broadcasts.
	RebroadcastWindow = 31 * time.Second
)

// Entry is one observed want_list entry.
type Entry struct {
	Timestamp time.Time
	// Monitor names the monitoring node that recorded the entry.
	Monitor string
	// NodeID is the requesting peer.
	NodeID simnet.NodeID
	// Addr is the requesting peer's transport address.
	Addr string
	// Type is the want_list entry type (WANT_HAVE, WANT_BLOCK, CANCEL).
	Type wire.EntryType
	// CID is the requested content identifier.
	CID cid.CID
	// Flags carries preprocessing results; zero in raw traces.
	Flags Flag
}

// IsDuplicate reports whether any duplicate flag is set; the paper's
// analyses filter both kinds.
func (e Entry) IsDuplicate() bool { return e.Flags != 0 }

// IsRequest reports whether the entry is a data request (not a CANCEL).
func (e Entry) IsRequest() bool { return e.Type != wire.Cancel }

// Sort orders entries by timestamp, tie-breaking deterministically.
func Sort(entries []Entry) {
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if !a.Timestamp.Equal(b.Timestamp) {
			return a.Timestamp.Before(b.Timestamp)
		}
		if a.Monitor != b.Monitor {
			return a.Monitor < b.Monitor
		}
		if a.NodeID != b.NodeID {
			return a.NodeID.Less(b.NodeID)
		}
		return a.CID.Key() < b.CID.Key()
	})
}

// dupKey identifies "the same logical request" across observations.
type dupKey struct {
	node simnet.NodeID
	typ  wire.EntryType
	c    cid.CID
}

// Unify merges the traces of multiple monitors into one global trace
// (Sec. IV-B): entries are time-sorted, same-monitor repetitions within
// RebroadcastWindow are flagged FlagRebroadcast, and entries whose
// (node, type, CID) was seen at a *different* monitor within
// InterMonitorWindow are flagged FlagInterMonitorDup.
//
// The first observation of a request keeps zero flags. Note the paper's
// caveat: per-peer re-broadcast timers run independently, so a re-broadcast
// can reach the other monitor inside the 5 s window and be classified as an
// inter-monitor duplicate; this misclassification is inherent to the method
// and reproduced here.
//
// Unify is the reference implementation: it needs every trace resident and
// sorts the lot. No production path calls it — runs unify online through
// ingest.UnifySink and ingest.StreamUnifier — and it stays exported because
// those are tested, and checked by the benchmark, against its output.
func Unify(traces ...[]Entry) []Entry {
	var out []Entry
	for _, t := range traces {
		out = append(out, t...)
	}
	Sort(out)

	lastPerMonitor := make(map[string]map[dupKey]time.Time)
	lastAny := make(map[dupKey]lastSeen)
	for i := range out {
		e := &out[i]
		key := dupKey{node: e.NodeID, typ: e.Type, c: e.CID}

		perMon, ok := lastPerMonitor[e.Monitor]
		if !ok {
			perMon = make(map[dupKey]time.Time)
			lastPerMonitor[e.Monitor] = perMon
		}
		if prev, seen := perMon[key]; seen && e.Timestamp.Sub(prev) <= RebroadcastWindow {
			e.Flags |= FlagRebroadcast
		}
		perMon[key] = e.Timestamp

		if prev, seen := lastAny[key]; seen && prev.monitor != e.Monitor &&
			e.Timestamp.Sub(prev.at) <= InterMonitorWindow {
			e.Flags |= FlagInterMonitorDup
		}
		lastAny[key] = lastSeen{at: e.Timestamp, monitor: e.Monitor}
	}
	return out
}

type lastSeen struct {
	at      time.Time
	monitor string
}

// Deduplicated returns the entries with no duplicate flags, i.e. the view
// used by the paper's rate and popularity analyses.
func Deduplicated(entries []Entry) []Entry {
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if !e.IsDuplicate() {
			out = append(out, e)
		}
	}
	return out
}

// Filter returns the entries satisfying keep.
func Filter(entries []Entry, keep func(Entry) bool) []Entry {
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Summary aggregates a trace for quick inspection.
type Summary struct {
	Entries      int
	Requests     int // non-CANCEL entries
	UniquePeers  int
	UniqueCIDs   int
	Rebroadcasts int
	InterMonDups int
	First, Last  time.Time
	PerMonitor   map[string]int
	PerType      map[wire.EntryType]int
}

// Summarizer computes a Summary incrementally, so streaming pipelines can
// summarise a trace in one pass. The exact-uniqueness sets are bitmaps over
// the ids a Symbols issues, so an entry costs no map probe of its own when
// another consumer of the same Symbols has just resolved it; the per-type
// and per-monitor counts become Summary's maps only when asked for. Memory
// is proportional to the distinct peers and CIDs observed (one Symbols
// entry plus one bit each), not trace length.
type Summarizer struct {
	s       Summary // all but the distinct counts and the two maps
	syms    *Symbols
	peers   idSet
	cids    idSet
	perType [256]int       // by wire.EntryType
	perMon  []monitorCount // in first-seen order
}

type monitorCount struct {
	name string
	n    int
}

// NewSummarizer returns an empty Summarizer numbering peers and CIDs with a
// private Symbols.
func NewSummarizer() *Summarizer { return NewSummarizerWith(NewSymbols()) }

// NewSummarizerWith returns an empty Summarizer that resolves peers and CIDs
// through syms, shared with the other consumers of the same pass.
func NewSummarizerWith(syms *Symbols) *Summarizer {
	return &Summarizer{syms: syms}
}

// Write folds one entry into the summary. It never fails; the error return
// satisfies streaming sink interfaces.
func (z *Summarizer) Write(e Entry) error {
	s := &z.s
	s.Entries++
	if e.IsRequest() {
		s.Requests++
	}
	z.peers.Add(z.syms.Peer(e.NodeID))
	z.cids.Add(z.syms.CID(e.CID))
	if e.Flags&FlagRebroadcast != 0 {
		s.Rebroadcasts++
	}
	if e.Flags&FlagInterMonitorDup != 0 {
		s.InterMonDups++
	}
	z.countMonitor(e.Monitor, 1)
	z.perType[e.Type]++
	if s.First.IsZero() || e.Timestamp.Before(s.First) {
		s.First = e.Timestamp
	}
	if e.Timestamp.After(s.Last) {
		s.Last = e.Timestamp
	}
	return nil
}

// Merge folds from's summary into z, so that z summarizes both streams as
// one Summarizer that had been written every entry of each would: counts,
// per-monitor and per-type counts included, add, First is the earlier and Last
// the later of the two, and the distinct peer and CID sets are unions,
// from's ids translated through z's Symbols. from is left unchanged.
func (z *Summarizer) Merge(from *Summarizer) {
	s, f := &z.s, &from.s
	if f.Entries == 0 {
		return
	}
	s.Entries += f.Entries
	s.Requests += f.Requests
	s.Rebroadcasts += f.Rebroadcasts
	s.InterMonDups += f.InterMonDups
	for _, m := range from.perMon {
		z.countMonitor(m.name, m.n)
	}
	for typ, n := range from.perType {
		z.perType[typ] += n
	}
	if s.First.IsZero() || f.First.Before(s.First) {
		s.First = f.First
	}
	if f.Last.After(s.Last) {
		s.Last = f.Last
	}
	t := z.syms.Translate(from.syms)
	z.peers.AddMapped(&from.peers, t.Peers)
	z.cids.AddMapped(&from.cids, t.CIDs)
}

// Summary returns the summary so far. The result is a snapshot: further
// Write calls do not mutate it.
func (z *Summarizer) Summary() Summary {
	s := z.s
	s.UniquePeers = z.peers.Len()
	s.UniqueCIDs = z.cids.Len()
	s.PerMonitor = make(map[string]int, len(z.perMon))
	for _, m := range z.perMon {
		s.PerMonitor[m.name] = m.n
	}
	s.PerType = make(map[wire.EntryType]int)
	for typ, n := range z.perType {
		if n > 0 {
			s.PerType[wire.EntryType(typ)] = n
		}
	}
	return s
}

// countMonitor adds n entries to mon's count. A pass has one monitor per
// vantage point, a handful, so a scan costs less than a map probe.
func (z *Summarizer) countMonitor(mon string, n int) {
	for i := range z.perMon {
		if z.perMon[i].name == mon {
			z.perMon[i].n += n
			return
		}
	}
	z.perMon = append(z.perMon, monitorCount{mon, n})
}

// Summarize computes a Summary.
func Summarize(entries []Entry) Summary {
	z := NewSummarizer()
	for _, e := range entries {
		z.Write(e)
	}
	return z.Summary()
}
