package replay

import (
	"fmt"
	"math"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
)

// Mode selects how a recorded trace becomes a workload.
type Mode string

// Replay modes. The spellings match the sweep spec's workload_source.mode.
const (
	// ModeDirect re-issues each recorded entry at its recorded offset.
	ModeDirect Mode = "replay"
	// ModeFitted fits empirical models and generates a matched workload.
	ModeFitted Mode = "fitted"
)

// Spec is the one declaration of a replay: inputs, mode and scale. Its JSON
// keys are the workload_source keys of a scenario spec; the sweep runner
// fills the runtime fields (Monitors, Seed, Start) in
// ScenarioSpec.ReplaySpec. Zero fields take the defaults noted on each.
type Spec struct {
	// Mode is ModeDirect (also the empty mode) or ModeFitted. A scenario
	// spec's workload_source also takes "synthetic", which selects
	// generation instead of replay.
	Mode Mode `json:"mode"`
	// Inputs are trace sources: segment-store directories, flat binary
	// traces, or CSV exports. Each input is one monitor's stream.
	Inputs []string `json:"inputs,omitempty"`
	// TimeWarp divides recorded offsets: 2 replays a trace in half its
	// recorded duration, 0.5 stretches it to twice. Default 1.
	TimeWarp float64 `json:"time_warp,omitempty"`
	// Amplify scales the fitted population and volume (fitted mode only;
	// default 1).
	Amplify float64 `json:"amplify,omitempty"`
	// Nodes is the replay requester pool size. Zero auto-sizes: 256 for
	// direct replay, the amplified requester count for fitted replay.
	// Observed requesters map onto the pool in first-seen round-robin
	// order; with at least as many pool nodes as distinct requesters the
	// mapping is injective, otherwise requesters share nodes (counts per
	// monitor are unaffected; only per-requester attribution coarsens).
	Nodes int `json:"replay_nodes,omitempty"`
	// MonitorFrac is the probability that a replay node connects to each
	// monitor, drawn independently per (node, monitor) pair. It only
	// affects broadcast events (fitted replay); direct replay targets the
	// recording monitor explicitly. Zero means unset and selects full
	// coverage (1); use a small positive value for near-zero coverage.
	MonitorFrac float64 `json:"monitor_frac,omitempty"`
	// Monitors declares the world's vantage points; empty discovers them
	// from the inputs (DiscoverMonitors). Direct replay requires every
	// monitor the trace names to be present.
	Monitors []monitor.Spec `json:"-"`
	// Seed drives monitor connectivity draws, node placement and the
	// fitted generator.
	Seed int64 `json:"-"`
	// Start is the replay world's virtual start time (default
	// simnet.Epoch).
	Start time.Time `json:"-"`
}

func (s Spec) withDefaults() Spec {
	if s.Start.IsZero() {
		s.Start = simnet.Epoch
	}
	if s.Nodes <= 0 {
		s.Nodes = 256
	}
	if s.TimeWarp <= 0 {
		s.TimeWarp = 1
	}
	if s.MonitorFrac <= 0 {
		s.MonitorFrac = 1
	}
	return s
}

// Session is a prepared replay: a built world plus the event source that
// will drive it. Close stops direct replay's read-ahead and then releases
// the input files it read.
type Session struct {
	World *World
	// Model is the fitted model (nil in direct mode).
	Model *Model

	src     EventSource
	cleanup func()
	driven  bool
}

// Prepare opens the spec's inputs, fits the model if the mode asks for it,
// discovers monitors when the spec does not name them, and builds the
// world. The caller sets monitor sinks (World.SetSinks), then calls Drive.
func Prepare(spec Spec) (*Session, error) {
	if len(spec.Inputs) == 0 {
		return nil, fmt.Errorf("replay: no trace inputs")
	}
	if len(spec.Monitors) == 0 {
		monitors, err := DiscoverMonitors(spec.Inputs)
		if err != nil {
			return nil, err
		}
		spec.Monitors = monitors
	}
	switch spec.Mode {
	case ModeDirect, "":
		sources, cleanup, err := ingest.OpenInputs(spec.Inputs)
		if err != nil {
			return nil, err
		}
		// Direct replay re-issues every entry regardless of flags, so the
		// unifier runs in merge-only mode: same order, no sliding-window
		// classification state. It merges a batch ahead of the drive, and
		// the read-ahead is closed before the inputs it reads.
		ahead := trace.NewReadAhead(ingest.NewStreamUnifier(sources...).MergeOnly())
		closeAll := func() {
			ahead.Close()
			cleanup()
		}
		w, err := Build(spec)
		if err != nil {
			closeAll()
			return nil, err
		}
		return &Session{World: w, src: NewDirectSource(ahead), cleanup: closeAll}, nil
	case ModeFitted:
		sources, cleanup, err := ingest.OpenInputs(spec.Inputs)
		if err != nil {
			return nil, err
		}
		model, err := Fit(ingest.NewStreamUnifier(sources...))
		cleanup()
		if err != nil {
			return nil, err
		}
		amplify := spec.Amplify
		if amplify <= 0 {
			amplify = 1
		}
		src, err := NewFittedSource(model, FittedOptions{Amplify: amplify, Seed: spec.Seed})
		if err != nil {
			return nil, err
		}
		if spec.Nodes <= 0 {
			spec.Nodes = int(math.Ceil(float64(model.Requesters) * amplify))
		}
		w, err := Build(spec)
		if err != nil {
			return nil, err
		}
		return &Session{World: w, Model: model, src: src, cleanup: func() {}}, nil
	default:
		return nil, fmt.Errorf("replay: unknown mode %q (want %q or %q)", spec.Mode, ModeDirect, ModeFitted)
	}
}

// Drive replays the prepared source through the world. A session drives
// once.
func (s *Session) Drive() (*DriveStats, error) {
	if s.driven {
		return nil, fmt.Errorf("replay: session already driven")
	}
	s.driven = true
	stats, err := s.World.Drive(s.src)
	if err != nil {
		return stats, err
	}
	if err := s.World.SinkErr(); err != nil {
		return stats, err
	}
	return stats, nil
}

// Close stops direct replay's read-ahead, then closes its inputs. Call it
// whether or not the session was driven.
func (s *Session) Close() error {
	if s.cleanup != nil {
		s.cleanup()
		s.cleanup = nil
	}
	return nil
}
