package replay

import (
	"fmt"
	"math"
	"time"

	"bitswapmon/internal/engine"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/otrace"
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

// Spec describes one replay execution end to end: inputs, mode, scale and
// engine. The sweep runner assembles one from a spec (ScenarioSpec.ReplaySpec).
type Spec struct {
	Mode Mode
	// Inputs are trace sources: segment-store directories, flat binary
	// traces, or CSV exports. Each input is one monitor's stream.
	Inputs []string
	// TimeWarp compresses (>1) or stretches (<1) replayed time.
	TimeWarp float64
	// Amplify scales the fitted population and volume (fitted mode only).
	Amplify float64
	// Nodes overrides the replay pool size. Zero auto-sizes: 256 for
	// direct replay, the amplified requester count for fitted replay.
	Nodes int
	// MonitorFrac is the fitted broadcast connectivity (see Config).
	MonitorFrac float64
	// Monitors overrides the world's vantage points; empty discovers them
	// from the inputs.
	Monitors []MonitorSpec
	Seed     int64
	Start    time.Time
	// NewEngine selects the simulation engine (nil = serial reference).
	NewEngine func(start time.Time, seed int64) engine.Engine
	// Tracer, when set, records sampled request spans during the replay
	// (see Config.Tracer).
	Tracer *otrace.Tracer
}

// Session is a prepared replay: a built world plus the event source that
// will drive it. Close releases input files held open by direct replay.
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
	monitors := spec.Monitors
	if len(monitors) == 0 {
		var err error
		monitors, err = DiscoverMonitors(spec.Inputs)
		if err != nil {
			return nil, err
		}
	}
	cfg := Config{
		Seed:        spec.Seed,
		Start:       spec.Start,
		Monitors:    monitors,
		Nodes:       spec.Nodes,
		TimeWarp:    spec.TimeWarp,
		MonitorFrac: spec.MonitorFrac,
		NewEngine:   spec.NewEngine,
		Tracer:      spec.Tracer,
	}
	switch spec.Mode {
	case ModeDirect, "":
		sources, cleanup, err := ingest.OpenInputs(spec.Inputs)
		if err != nil {
			return nil, err
		}
		w, err := Build(cfg)
		if err != nil {
			cleanup()
			return nil, err
		}
		// Direct replay re-issues every entry regardless of flags, so the
		// unifier runs in merge-only mode: same order, no sliding-window
		// classification state.
		return &Session{
			World:   w,
			src:     NewDirectSource(ingest.NewStreamUnifier(sources...).MergeOnly()),
			cleanup: cleanup,
		}, nil
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
		if cfg.Nodes <= 0 {
			cfg.Nodes = int(math.Ceil(float64(model.Requesters) * amplify))
		}
		w, err := Build(cfg)
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

// Close releases input files held by the session.
func (s *Session) Close() error {
	if s.cleanup != nil {
		s.cleanup()
		s.cleanup = nil
	}
	return nil
}
