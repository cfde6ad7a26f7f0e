// Package cmdutil holds the operational plumbing shared by the long-running
// commands (bsmon, bssweep): the HTTP endpoint that turns on every
// subsystem's instrumentation and serves /metrics plus /debug/pprof (bssweep's
// -metrics-addr, bsmon's -serve-addr), and the -cpuprofile/-memprofile pair
// for offline profiling.
package cmdutil

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/obs"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/report"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/sweep"
)

// EnableAllMetrics turns on instrumentation in every subsystem, registering
// into obs.Default. Call it before constructing engines, stores, drivers,
// tracers or orchestrators — each resolves its telemetry handle at
// construction.
func EnableAllMetrics() {
	simnet.EnableMetrics(nil)
	ingest.EnableMetrics(nil)
	sweep.EnableMetrics(nil)
	report.EnableMetrics(nil)
	otrace.EnableMetrics(nil)
}

// ServeOps enables all subsystem metrics and starts the HTTP endpoint on
// addr (/metrics in Prometheus text format, /debug/pprof for live profiles),
// with any extra endpoints mounted on the same mux (bsmon adds /reports and
// /healthz). An empty addr is a no-op returning nil — callers can
// defer-close the result unconditionally.
func ServeOps(addr string, extra map[string]http.Handler) (*obs.Server, error) {
	if addr == "" {
		return nil, nil
	}
	EnableAllMetrics()
	return obs.ServeWith(addr, nil, extra)
}

// Profiles is the running state of the -cpuprofile/-memprofile flag pair.
type Profiles struct {
	cpu     *os.File
	memPath string
}

// StartProfiles begins a CPU profile into cpuPath (when non-empty) and
// remembers memPath for a heap profile at Stop. Either path may be empty.
func StartProfiles(cpuPath, memPath string) (*Profiles, error) {
	p := &Profiles{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpu = f
	}
	return p, nil
}

// Stop finishes the CPU profile and writes the heap profile, if either was
// requested. Safe to call on a nil receiver and idempotent for the CPU side.
func (p *Profiles) Stop() error {
	if p == nil {
		return nil
	}
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpu = nil
	}
	if p.memPath == "" {
		return nil
	}
	f, err := os.Create(p.memPath)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
