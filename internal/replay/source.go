package replay

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

// Event is one replayable request: a want-list entry at an offset from the
// trace start. Monitor names the vantage point that recorded it (direct
// replay re-issues the entry to exactly that monitor); an empty Monitor
// means the event is broadcast to the replaying node's connected monitors
// (fitted replay, where generated requests have no recording vantage point).
type Event struct {
	Offset    time.Duration
	Requester simnet.NodeID
	Monitor   string
	Type      wire.EntryType
	CID       cid.CID
}

// EventSource yields events in nondecreasing offset order and returns
// io.EOF after the last one.
type EventSource interface {
	Next() (Event, error)
}

// DirectSource adapts a unified trace stream (ingest.StreamUnifier, a
// segment query, a trace file) into replay events. Offsets are relative to
// the first entry's timestamp. Every entry replays, including re-broadcasts
// and CANCELs, so the monitor-side trace reproduces the recorded one
// entry-for-entry.
type DirectSource struct {
	src     ingest.EntrySource
	base    time.Time
	started bool
}

// NewDirectSource wraps src. The source must be time-ordered, which
// StreamUnifier guarantees.
func NewDirectSource(src ingest.EntrySource) *DirectSource {
	return &DirectSource{src: src}
}

// Next returns the next event, or io.EOF.
func (s *DirectSource) Next() (Event, error) {
	e, err := s.src.Read()
	if err != nil {
		return Event{}, err
	}
	if !s.started {
		s.base = e.Timestamp
		s.started = true
	}
	off := e.Timestamp.Sub(s.base)
	if off < 0 {
		return Event{}, fmt.Errorf("replay: source went back in time at %s", e.Timestamp.Format(time.RFC3339Nano))
	}
	return Event{
		Offset:    off,
		Requester: e.NodeID,
		Monitor:   e.Monitor,
		Type:      e.Type,
		CID:       e.CID,
	}, nil
}

// DiscoverMonitors derives the monitor set a trace references. Segment
// stores answer from their footers without touching entry data; flat files
// need one streaming pass. Names map onto regions by spelling ("us" → US,
// "de" → DE, ...), defaulting to Other.
func DiscoverMonitors(paths []string) ([]monitor.Spec, error) {
	names := make(map[string]bool)
	var flat []string
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if !st.IsDir() {
			flat = append(flat, path)
			continue
		}
		store, err := ingest.OpenSegmentStore(path, ingest.SegmentOptions{})
		if err != nil {
			return nil, fmt.Errorf("replay: open store %s: %w", path, err)
		}
		for name := range store.Totals().PerMonitor {
			names[name] = true
		}
	}
	if len(flat) > 0 {
		sources, cleanup, err := ingest.OpenInputs(flat)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		for _, src := range sources {
			for {
				e, err := src.Read()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				names[e.Monitor] = true
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	specs := make([]monitor.Spec, 0, len(sorted))
	for _, n := range sorted {
		specs = append(specs, monitor.Spec{Name: n, Region: regionForName(n)})
	}
	return specs, nil
}

// regionForName guesses a monitor's region from its name, matching the
// convention used throughout the repo ("us"/"de" vantage points).
func regionForName(name string) simnet.Region {
	switch strings.ToUpper(name) {
	case "US":
		return simnet.RegionUS
	case "NL":
		return simnet.RegionNL
	case "DE":
		return simnet.RegionDE
	case "CA":
		return simnet.RegionCA
	case "FR":
		return simnet.RegionFR
	default:
		return simnet.RegionOther
	}
}
