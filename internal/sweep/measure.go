package sweep

import (
	"fmt"
	"time"

	"bitswapmon/internal/attacks"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/node"
	"bitswapmon/internal/replay"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/workload"
)

// defaultSampleEvery is the tick a spec that omits sample_every gets. A
// zero tick would make the self-rescheduling online tracker spin at a
// single simulated instant forever.
const defaultSampleEvery = 30 * time.Minute

// Measurement is what one measured window leaves behind beside the entries
// the monitors streamed into their sinks.
type Measurement struct {
	// World is the built world, its clock at the end of the window.
	World *workload.World
	// Samples are the periodic snapshots of the monitors' peer sets.
	Samples []monitor.Sample
	// OnlineAvg is the mean ground-truth online population over those ticks.
	OnlineAvg float64

	sampler *monitor.Sampler
	online  float64 // running sum of the online population, one per tick
	ticks   int
}

// Measure is the measurement procedure every synthetic run follows — a
// sweep run, the week scenario, the Fig. 4 upgrade scenario: Start, let
// attach point each monitor at its sink, run the window, Stop. Whatever a
// caller does next (sealing stores, crawl, probes) runs on the returned
// world, after the window.
func Measure(spec ScenarioSpec, seed int64, attach func(*workload.World) error) (*Measurement, error) {
	m, err := Start(spec, seed)
	if err != nil {
		return nil, err
	}
	if err := attach(m.World); err != nil {
		return nil, err
	}
	m.Advance(spec.Window.Std())
	m.Stop()
	return m, nil
}

// Start builds the world the spec describes, attaches the spec's span
// recorder to its network, warms it up (its monitors have no sink yet, so
// they record nothing of it) and arms the peer sampler and the
// online-population tracker on one tick. Sinks attached to the returned
// world see no warm-up, and a daemon advancing it step by step records what
// a bounded run records.
func Start(spec ScenarioSpec, seed int64) (*Measurement, error) {
	cfg, err := spec.WorkloadConfig(seed)
	if err != nil {
		return nil, err
	}
	w, err := workload.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: build world: %w", err)
	}
	w.Net.SetTracer(spec.newTracer(seed))

	w.Run(spec.Warmup.Std())

	tick := spec.SampleEvery.Std()
	if tick <= 0 {
		tick = defaultSampleEvery
	}
	m := &Measurement{World: w, sampler: monitor.NewSampler(w.Net, w.Monitors, tick)}
	m.sampler.Start()
	var trackOnline func()
	trackOnline = func() {
		m.online += float64(w.OnlineCount())
		m.ticks++
		w.Net.After(tick, trackOnline)
	}
	w.Net.After(tick, trackOnline)
	return m, nil
}

// Advance runs the world for d of virtual time.
func (m *Measurement) Advance(d time.Duration) { m.World.Run(d) }

// Stop halts the sampler and fills Samples and OnlineAvg.
func (m *Measurement) Stop() {
	m.sampler.Stop()
	m.Samples = m.sampler.Samples()
	if m.ticks > 0 {
		m.OnlineAvg = m.online / float64(m.ticks)
	}
}

// ReplayMeasurement is what one replayed trace leaves behind beside the
// entries the monitors streamed into their sinks.
type ReplayMeasurement struct {
	// World is the replay world, its clock at the end of the drive.
	World *replay.World
	// Model is the fitted model the workload was generated from (nil in
	// direct mode).
	Model *replay.Model
	// Drive counts what was replayed.
	Drive *replay.DriveStats
}

// MeasureReplay is Measure for a workload_source spec: open the recorded
// inputs and build the replay world they describe (fitting the model first
// in fitted mode), attach the spec's span recorder to its network, let
// attach point each monitor at its sink, then drive
// the recorded or generated events through the world to exhaustion. A sink
// error a monitor recorded during the drive fails the measurement.
func MeasureReplay(spec ScenarioSpec, seed int64, attach func(*replay.World) error) (*ReplayMeasurement, error) {
	rs, err := spec.ReplaySpec(seed)
	if err != nil {
		return nil, err
	}
	sess, err := replay.Prepare(rs)
	if err != nil {
		return nil, fmt.Errorf("sweep: prepare replay: %w", err)
	}
	defer sess.Close()
	sess.World.Net.SetTracer(spec.newTracer(seed))
	if err := attach(sess.World); err != nil {
		return nil, err
	}
	drive, err := sess.Drive()
	if err != nil {
		return nil, fmt.Errorf("sweep: drive replay: %w", err)
	}
	return &ReplayMeasurement{World: sess.World, Model: sess.Model, Drive: drive}, nil
}

// Crawl runs one DHT crawl of the world from a dedicated client node and
// returns once it completes. The paper crawls repeatedly; one crawl at the
// end of the window suffices for the Sec. V-C comparison.
func Crawl(w *workload.World) (dht.CrawlResult, error) {
	id := simnet.DeriveNodeID([]byte("experiment-crawler"))
	nd, err := node.New(w.Net, id, "202.0.0.1:4001", simnet.RegionOther, node.Config{Mode: dht.ModeClient})
	if err != nil {
		return dht.CrawlResult{}, fmt.Errorf("sweep: crawler node: %w", err)
	}
	var res *dht.CrawlResult
	dht.Crawl(nd.DHT, w.Bootstrap, 16, func(r dht.CrawlResult) { res = &r })
	w.Run(10 * time.Minute)
	if res == nil {
		return dht.CrawlResult{}, fmt.Errorf("sweep: crawl did not complete")
	}
	return *res, nil
}

// ProbeGateways runs the Sec. VI-B gateway identification probe against
// every listed gateway and returns once all probes have timed out or been
// observed.
func ProbeGateways(w *workload.World) []attacks.ProbeResult {
	prober := attacks.NewGatewayProber(w.Net, w.Monitors, w.Net.NewRand("gwprobe"))
	var probes []attacks.ProbeResult
	prober.ProbeAll(w.Registry, func(r []attacks.ProbeResult) { probes = r })
	w.Run(time.Duration(len(w.Registry.All())+2) * prober.WaitFor)
	return probes
}
