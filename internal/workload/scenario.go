package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bitswapmon/internal/bitswap"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/dht"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/gateway"
	"bitswapmon/internal/geoip"
	"bitswapmon/internal/merkledag"
	"bitswapmon/internal/monitor"
	"bitswapmon/internal/node"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
)

// chunkSize is the DAG chunk size of published content.
const chunkSize = 2048

// refreshInterval is the nodes' DHT refresh period. The real client uses
// 10 min; in a scaled-down network each lookup touches a much larger
// network fraction, so 1 h keeps the maintenance-to-population ratio
// comparable.
const refreshInterval = time.Hour

// Duration is a time.Duration that marshals as a Go duration string
// ("6h30m"), keeping specs human-editable; plain JSON numbers are accepted
// as nanoseconds.
type Duration time.Duration

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// MarshalJSON encodes the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "1h30m" strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("workload: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("workload: duration must be a string or nanoseconds: %s", data)
	}
	*d = Duration(n)
	return nil
}

// JointConnectivity gives the joint probability that a node connects to the
// two monitors while online. The defaults are calibrated to Sec. V-C: per-
// monitor coverage 54%/49% with union 67% implies P(both)=0.36,
// P(only us)=0.18, P(only de)=0.13. The positive correlation (0.36 >
// 0.54·0.49) is what makes Eq. (1)/(3) *underestimate* the true size, as the
// paper observes against the crawler baseline.
type JointConnectivity struct {
	Both  float64 `json:"both"`
	OnlyA float64 `json:"only_a"`
	OnlyB float64 `json:"only_b"`
}

// DefaultJoint returns the Sec. V-C calibration.
func DefaultJoint() JointConnectivity {
	return JointConnectivity{Both: 0.36, OnlyA: 0.18, OnlyB: 0.13}
}

// OperatorSpec describes one gateway operator.
type OperatorSpec struct {
	Name string `json:"name"`
	// Nodes is how many gateway nodes the operator runs (the Cloudflare
	// analogue runs 13).
	Nodes int `json:"nodes"`
	// RequestsPerHour is the HTTP request rate across the operator's fleet.
	RequestsPerHour float64 `json:"requests_per_hour"`
	// HotBias is the probability an HTTP request targets a hot item,
	// driving the cache hit ratio (0.97 hit ratio needs a high bias).
	HotBias float64 `json:"hot_bias"`
	// Functional reports whether the HTTP frontend works (Sec. VI-B2 finds
	// broken-HTTP gateways that still emit Bitswap traffic).
	Functional bool `json:"functional"`
	// CacheTTL for the operator's gateways.
	CacheTTL Duration `json:"cache_ttl,omitempty"`
}

// DefaultOperators returns a fleet shaped like the public gateway list: one
// large operator ("megagate", the Cloudflare analogue) plus small ones.
func DefaultOperators() []OperatorSpec {
	ops := []OperatorSpec{{
		Name:            "megagate",
		Nodes:           13,
		RequestsPerHour: 2000,
		HotBias:         0.98,
		Functional:      true,
		CacheTTL:        Duration(time.Hour),
	}}
	for i := 0; i < 8; i++ {
		ops = append(ops, OperatorSpec{
			Name:            fmt.Sprintf("gw-op-%d", i),
			Nodes:           1 + i%3,
			RequestsPerHour: 40,
			HotBias:         0.8,
			Functional:      i != 5, // one broken-HTTP operator
			CacheTTL:        Duration(time.Hour),
		})
	}
	return ops
}

// Config is the one declaration of a synthetic world. Its JSON keys are the
// world keys of a scenario spec (sweep.ScenarioSpec embeds it), declared in
// the spec's key order; zero fields take the defaults noted on each. Seed,
// Start and NewEngine are runtime fields the runner fills in.
type Config struct {
	Seed int64 `json:"-"`
	// Start is the virtual start time (default simnet.Epoch).
	Start time.Time `json:"-"`
	// Nodes is the regular node population (default 600).
	Nodes int `json:"nodes,omitempty"`
	// ClientFrac is the DHT-client share (default 0.45).
	ClientFrac float64 `json:"client_frac,omitempty"`
	// StableFrac is the share of nodes that never churn (default 0.3).
	StableFrac float64 `json:"stable_frac,omitempty"`
	// ActiveFrac is the share of nodes that issue Bitswap requests
	// (default 0.35; the paper finds most connected peers are inactive).
	ActiveFrac float64 `json:"active_frac,omitempty"`
	// DegreeTarget is the number of overlay connections a node opens on
	// join (default 12; scaled down from the real 600–900).
	DegreeTarget int `json:"degree_target,omitempty"`
	// BootstrapServers is the stable core size (default 15).
	BootstrapServers int `json:"bootstrap_servers,omitempty"`
	// MeanSession / MeanOffline shape churn (defaults 6h / 18h).
	MeanSession Duration `json:"mean_session,omitempty"`
	MeanOffline Duration `json:"mean_offline,omitempty"`
	// MeanRequestsPerHour is the per-active-node request rate (default 2).
	MeanRequestsPerHour float64 `json:"mean_requests_per_hour,omitempty"`
	// CatalogItems is the number of distinct content items (default 2000).
	CatalogItems int `json:"catalog_items,omitempty"`
	// PersonalFrac is the probability a request targets one of the node's
	// personal items rather than the shared catalog. Personal items are
	// what drives the paper's ">80% of CIDs requested by exactly one
	// peer" (default 0.85).
	PersonalFrac float64 `json:"personal_frac,omitempty"`
	// PersonalItemsPerNode sizes each active node's personal item set
	// (default 8).
	PersonalItemsPerNode int `json:"personal_items_per_node,omitempty"`
	// GlobalHotFrac is the probability that a non-personal request targets
	// the hot head rather than the weighted long tail (default 0.45). High
	// values concentrate shared interest on few CIDs, keeping the
	// single-requester share high as in the paper.
	GlobalHotFrac float64 `json:"global_hot_frac,omitempty"`
	// GlobalWarmFrac is the probability that a non-personal, non-hot
	// request targets the warm tier: semi-popular items shared by a few
	// users (default 0.5 of the remainder). The warm tier is what puts
	// mass on URP values of 2-10 in Fig. 5b.
	GlobalWarmFrac float64 `json:"global_warm_frac,omitempty"`
	// WarmItems sizes the warm tier (default 5% of the catalog).
	WarmItems int `json:"warm_items,omitempty"`
	// UnresolvedCancelAfter is when requesters give up on unresolvable
	// CIDs (default 5 min; produces CANCEL entries and bounds rebroadcast
	// load).
	UnresolvedCancelAfter Duration `json:"unresolved_cancel_after,omitempty"`
	// LegacyFrac is the initial share of pre-v0.5 (WANT_BLOCK-broadcast)
	// clients (default 0; Fig. 4 scenarios set it close to 1).
	LegacyFrac float64 `json:"legacy_frac,omitempty"`
	// UpgradeAfter and UpgradeDailyFrac shape the v0.5 upgrade wave: from
	// Start+UpgradeAfter, each remaining legacy node upgrades with this
	// daily probability.
	UpgradeAfter     Duration `json:"upgrade_after,omitempty"`
	UpgradeDailyFrac float64  `json:"upgrade_daily_frac,omitempty"`
	// Monitors declares the monitoring vantage points (may be empty).
	Monitors []monitor.Spec `json:"monitors,omitempty"`
	// Joint is the 2-monitor connectivity model (nil or all zero =
	// DefaultJoint; ignored unless there are two monitors).
	Joint *JointConnectivity `json:"joint,omitempty"`
	// MonitorProb is the per-monitor independent connection probability
	// used when len(Monitors) != 2 (default 0.5).
	MonitorProb float64 `json:"monitor_prob,omitempty"`
	// XORBias > 0 biases monitor connectivity towards XOR-near node IDs
	// (estimator-bias ablation; 0 = unbiased).
	XORBias float64 `json:"xor_bias,omitempty"`
	// Gateways configures the gateway operator fleets: nil selects
	// DefaultOperators, an empty non-nil slice disables gateways. No
	// omitempty: JSON must keep nil (null) and empty ([]) apart, or a spec
	// would silently grow the default fleet when written and reloaded
	// (e.g. across a sweep resume).
	Gateways []OperatorSpec `json:"gateways"`
	// NewEngine constructs the simulation engine for this world; nil
	// selects the single-threaded deterministic simnet reference. Parallel
	// runs pass e.g. engine.ShardedFactory(4).
	NewEngine func(start time.Time, seed int64) engine.Engine `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = simnet.Epoch
	}
	if c.Nodes <= 0 {
		c.Nodes = 600
	}
	if c.ClientFrac <= 0 {
		c.ClientFrac = 0.45
	}
	if c.StableFrac <= 0 {
		c.StableFrac = 0.3
	}
	if c.ActiveFrac <= 0 {
		c.ActiveFrac = 0.35
	}
	if c.MeanRequestsPerHour <= 0 {
		c.MeanRequestsPerHour = 2
	}
	if c.DegreeTarget <= 0 {
		c.DegreeTarget = 12
	}
	if c.MeanSession <= 0 {
		c.MeanSession = Duration(6 * time.Hour)
	}
	if c.MeanOffline <= 0 {
		c.MeanOffline = Duration(18 * time.Hour)
	}
	if c.Joint == nil || *c.Joint == (JointConnectivity{}) {
		joint := DefaultJoint()
		c.Joint = &joint
	}
	if c.MonitorProb <= 0 {
		c.MonitorProb = 0.5
	}
	if c.Gateways == nil {
		c.Gateways = DefaultOperators()
	}
	if c.UnresolvedCancelAfter <= 0 {
		c.UnresolvedCancelAfter = Duration(5 * time.Minute)
	}
	if c.BootstrapServers <= 0 {
		c.BootstrapServers = 15
	}
	if c.PersonalFrac <= 0 {
		c.PersonalFrac = 0.85
	}
	if c.PersonalItemsPerNode <= 0 {
		c.PersonalItemsPerNode = 8
	}
	if c.GlobalHotFrac <= 0 {
		c.GlobalHotFrac = 0.45
	}
	if c.GlobalWarmFrac <= 0 {
		c.GlobalWarmFrac = 0.5
	}
	return c
}

// ScenarioNode is one population node plus its behavioural profile.
type ScenarioNode struct {
	N       *node.Node
	Country simnet.Region
	// Stable nodes never churn.
	Stable bool
	// Active nodes issue requests.
	Active bool
	// Rate is requests per hour while online.
	Rate float64
	// ConnectUS/ConnectDE report the monitor-connectivity class (named
	// after the paper's two monitors; generalised as bitmask for r > 2).
	MonitorMask uint64
	// Legacy runs the pre-v0.5 client.
	Legacy bool
	// reqGen invalidates stale request-loop events across churn cycles.
	reqGen uint64
	// reqSeq numbers this node's requests for deterministic trace IDs. It
	// advances on every issueRequest, independent of engine and sampling.
	reqSeq uint64
	// rng drives this node's churn and request processes. Per-node streams
	// (rather than one world-wide RNG) keep runtime draws race-free and
	// well-defined when nodes run on different engine shards.
	rng *rand.Rand
	// personal holds catalog indices only this node requests; the source
	// of single-requester CIDs.
	personal []int
}

// World is a fully built scenario.
type World struct {
	Net       engine.Engine
	Geo       *geoip.DB
	Catalog   *Catalog
	Nodes     []*ScenarioNode
	Monitors  []*monitor.Monitor
	Gateways  []*gateway.Gateway
	Registry  *gateway.Registry
	Bootstrap []dht.PeerInfo

	cfg Config
	rng *rand.Rand
}

// Build constructs the world: network, monitors, bootstrap core, gateways,
// population, published catalog, churn and traffic processes.
func Build(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	var net engine.Engine
	if cfg.NewEngine != nil {
		net = cfg.NewEngine(cfg.Start, cfg.Seed)
	} else {
		net = simnet.New(cfg.Start, cfg.Seed, nil)
	}
	w := &World{
		Net:      net,
		Geo:      geoip.New(),
		Registry: &gateway.Registry{},
		cfg:      cfg,
		rng:      net.NewRand("workload"),
	}

	if err := w.buildMonitors(); err != nil {
		return nil, err
	}
	if err := w.buildBootstrapCore(); err != nil {
		return nil, err
	}
	if err := w.buildGateways(); err != nil {
		return nil, err
	}
	if err := w.buildPopulation(); err != nil {
		return nil, err
	}
	if err := w.publishCatalog(); err != nil {
		return nil, err
	}
	w.startEverything()
	return w, nil
}

func (w *World) allocAddr(region simnet.Region) (string, error) {
	addr, err := w.Geo.Allocate(region)
	if err != nil {
		return "", fmt.Errorf("allocate address: %w", err)
	}
	return addr, nil
}

func (w *World) buildMonitors() error {
	for _, spec := range w.cfg.Monitors {
		addr, err := w.allocAddr(spec.Region)
		if err != nil {
			return err
		}
		m, err := monitor.New(w.Net, spec.Name, addr, spec.Region)
		if err != nil {
			return err
		}
		w.Monitors = append(w.Monitors, m)
	}
	return nil
}

func (w *World) buildBootstrapCore() error {
	for i := 0; i < w.cfg.BootstrapServers; i++ {
		region := countries.Sample(w.rng)
		addr, err := w.allocAddr(region)
		if err != nil {
			return err
		}
		id := simnet.RandomNodeID(w.rng)
		nd, err := node.New(w.Net, id, addr, region, node.Config{
			Mode:            dht.ModeServer,
			ChunkSize:       chunkSize,
			RefreshInterval: refreshInterval,
			Bitswap:         bitswap.Config{GiveUpAfter: w.cfg.UnresolvedCancelAfter.Std()},
		})
		if err != nil {
			return err
		}
		w.Nodes = append(w.Nodes, &ScenarioNode{N: nd, Country: region, Stable: true, rng: w.Net.NewRand("scn-" + id.HexFull())})
		w.Bootstrap = append(w.Bootstrap, nd.Info())
	}
	return nil
}

func (w *World) buildGateways() error {
	for _, op := range w.cfg.Gateways {
		for i := 0; i < op.Nodes; i++ {
			region := countries.Sample(w.rng)
			addr, err := w.allocAddr(region)
			if err != nil {
				return err
			}
			id := simnet.RandomNodeID(w.rng)
			nd, err := node.New(w.Net, id, addr, region, node.Config{
				Mode:            dht.ModeServer,
				ChunkSize:       chunkSize,
				RefreshInterval: refreshInterval,
				Bitswap:         bitswap.Config{GiveUpAfter: w.cfg.UnresolvedCancelAfter.Std()},
			})
			if err != nil {
				return err
			}
			// Gateways run on the control shard: their cache and node state
			// are driven both by their own handlers and by the control-affine
			// HTTP traffic and probing loops.
			w.Net.Pin(id)
			g := gateway.New(w.Net, nd, fmt.Sprintf("%s-%d.gateway.example", op.Name, i), op.Name, gateway.Config{
				Functional: op.Functional,
				CacheTTL:   op.CacheTTL.Std(),
			})
			w.Gateways = append(w.Gateways, g)
			w.Registry.Add(g)
		}
	}
	return nil
}

func (w *World) buildPopulation() error {
	nMonitors := len(w.Monitors)
	for i := 0; i < w.cfg.Nodes; i++ {
		region := countries.Sample(w.rng)
		addr, err := w.allocAddr(region)
		if err != nil {
			return err
		}
		id := simnet.RandomNodeID(w.rng)
		mode := dht.ModeServer
		if w.rng.Float64() < w.cfg.ClientFrac {
			mode = dht.ModeClient
		}
		legacy := w.rng.Float64() < w.cfg.LegacyFrac
		nd, err := node.New(w.Net, id, addr, region, node.Config{
			Mode:            mode,
			ChunkSize:       chunkSize,
			RefreshInterval: refreshInterval,
			Bitswap: bitswap.Config{
				GiveUpAfter:     w.cfg.UnresolvedCancelAfter.Std(),
				LegacyWantBlock: legacy,
			},
		})
		if err != nil {
			return err
		}
		sn := &ScenarioNode{
			N:       nd,
			Country: region,
			Stable:  w.rng.Float64() < w.cfg.StableFrac,
			Active:  w.rng.Float64() < w.cfg.ActiveFrac,
			Legacy:  legacy,
			rng:     w.Net.NewRand("scn-" + id.HexFull()),
		}
		if sn.Active {
			// Exponentially distributed per-node rates around the mean.
			sn.Rate = w.rng.ExpFloat64() * w.cfg.MeanRequestsPerHour
			if sn.Rate < 0.05 {
				sn.Rate = 0.05
			}
		}
		sn.MonitorMask = w.drawMonitorMask(id, nMonitors)
		w.Nodes = append(w.Nodes, sn)
	}
	return nil
}

// drawMonitorMask assigns which monitors this node will connect to when
// online.
func (w *World) drawMonitorMask(id simnet.NodeID, nMonitors int) uint64 {
	if nMonitors == 0 {
		return 0
	}
	var mask uint64
	if nMonitors == 2 {
		u := w.rng.Float64()
		switch {
		case u < w.cfg.Joint.Both:
			mask = 0b11
		case u < w.cfg.Joint.Both+w.cfg.Joint.OnlyA:
			mask = 0b01
		case u < w.cfg.Joint.Both+w.cfg.Joint.OnlyA+w.cfg.Joint.OnlyB:
			mask = 0b10
		}
	} else {
		for i := 0; i < nMonitors; i++ {
			if w.rng.Float64() < w.cfg.MonitorProb {
				mask |= 1 << i
			}
		}
	}
	if w.cfg.XORBias > 0 {
		// Ablation: drop monitor connections for XOR-far nodes, modelling
		// proximity-biased peer selection.
		for i := 0; i < nMonitors; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			d := id.XOR(w.Monitors[i].ID()).Uniform01()
			if w.rng.Float64() >= math.Pow(1-d, w.cfg.XORBias) {
				mask &^= 1 << i
			}
		}
	}
	return mask
}

// publishCatalog stores resolvable items at stable publishers and finalises
// sampling weights.
func (w *World) publishCatalog() error {
	w.Catalog = BuildCatalog(w.cfg.CatalogItems, w.rng)
	var publishers []*ScenarioNode
	for _, sn := range w.Nodes {
		if sn.Stable {
			publishers = append(publishers, sn)
		}
	}
	if len(publishers) == 0 {
		return fmt.Errorf("workload: no stable publishers")
	}
	for i := range w.Catalog.Items {
		item := &w.Catalog.Items[i]
		if !item.Resolvable {
			continue
		}
		replicas := 1 + w.rng.Intn(3)
		if item.Hot {
			replicas = 3 + w.rng.Intn(3)
		}
		for rIdx := 0; rIdx < replicas; rIdx++ {
			pub := publishers[w.rng.Intn(len(publishers))]
			// Every replica stores the very block bytes the item keeps.
			for _, b := range item.Blocks {
				pub.N.Store.Put(b.CID, b.Data)
			}
			pub.N.DHT.Provide(dht.KeyForCID(item.Root), nil)
		}
	}
	w.Catalog.finalize()

	// Assign personal item sets to active nodes: items outside the hot
	// head, typically requested by exactly one peer.
	nHot := 0
	for nHot < len(w.Catalog.Items) && w.Catalog.Items[nHot].Hot {
		nHot++
	}
	if tail := len(w.Catalog.Items) - nHot; tail > 0 {
		for _, sn := range w.Nodes {
			if !sn.Active {
				continue
			}
			for i := 0; i < w.cfg.PersonalItemsPerNode; i++ {
				sn.personal = append(sn.personal, nHot+w.rng.Intn(tail))
			}
		}
	}
	return nil
}

// startEverything bootstraps monitors and nodes, arms churn, overlay
// connectivity, upgrades and traffic.
func (w *World) startEverything() {
	for _, m := range w.Monitors {
		m.Start(w.Bootstrap)
	}
	for _, g := range w.Gateways {
		g.Node.Start(w.Bootstrap)
		w.connectOverlay(g.Node, w.cfg.DegreeTarget, w.rng)
		// Gateways are busy public nodes: they connect to all monitors.
		for _, m := range w.Monitors {
			_ = w.Net.Connect(g.Node.ID, m.ID())
		}
	}
	for _, sn := range w.Nodes {
		online := sn.Stable || w.initialOnline()
		if online {
			w.bringOnline(sn)
		} else {
			_ = w.Net.SetOnline(sn.N.ID, false)
			w.scheduleRejoin(sn)
		}
	}
	w.scheduleUpgrades()
	w.armGatewayTraffic()
}

// initialOnline draws the steady-state online probability.
func (w *World) initialOnline() bool {
	p := float64(w.cfg.MeanSession) / float64(w.cfg.MeanSession+w.cfg.MeanOffline)
	return w.rng.Float64() < p
}

func (w *World) bringOnline(sn *ScenarioNode) {
	if !w.Net.IsOnline(sn.N.ID) {
		sn.N.GoOnline(w.Bootstrap)
	} else {
		sn.N.Start(w.Bootstrap)
	}
	w.connectOverlay(sn.N, w.cfg.DegreeTarget, sn.rng)
	for i, m := range w.Monitors {
		if sn.MonitorMask&(1<<i) != 0 {
			_ = w.Net.Connect(sn.N.ID, m.ID())
		}
	}
	if sn.Active {
		sn.reqGen++
		w.scheduleNextRequest(sn, sn.reqGen)
	}
	if !sn.Stable {
		w.scheduleLeave(sn)
	}
}

// connectOverlay opens connections to random online peers. The caller
// passes the RNG so that runtime rejoins draw from the node's own stream
// while build-time setup uses the world stream.
func (w *World) connectOverlay(nd *node.Node, degree int, rng *rand.Rand) {
	if len(w.Nodes) == 0 {
		return
	}
	for attempts := 0; attempts < degree*3 && w.Net.PeerCount(nd.ID) < degree; attempts++ {
		target := w.Nodes[rng.Intn(len(w.Nodes))]
		if target.N.ID == nd.ID || !w.Net.IsOnline(target.N.ID) {
			continue
		}
		_ = w.Net.Connect(nd.ID, target.N.ID)
	}
}

func (w *World) scheduleLeave(sn *ScenarioNode) {
	d := time.Duration(sn.rng.ExpFloat64() * float64(w.cfg.MeanSession))
	w.Net.AfterOn(sn.N.ID, d, func() {
		if !w.Net.IsOnline(sn.N.ID) {
			return
		}
		sn.N.GoOffline()
		w.scheduleRejoin(sn)
	})
}

func (w *World) scheduleRejoin(sn *ScenarioNode) {
	d := time.Duration(sn.rng.ExpFloat64() * float64(w.cfg.MeanOffline))
	w.Net.AfterOn(sn.N.ID, d, func() {
		if w.Net.IsOnline(sn.N.ID) {
			return
		}
		w.bringOnline(sn)
	})
}

// scheduleNextRequest arms one node's Poisson request process with diurnal
// modulation. gen guards against doubled loops across churn cycles.
func (w *World) scheduleNextRequest(sn *ScenarioNode, gen uint64) {
	if sn.Rate <= 0 {
		return
	}
	now := w.Net.Now()
	utcHour := float64(now.Hour()) + float64(now.Minute())/60
	rate := sn.Rate * diurnalFactor(utcHour, sn.Country)
	gap := time.Duration(sn.rng.ExpFloat64() / rate * float64(time.Hour))
	if gap < time.Second {
		gap = time.Second
	}
	w.Net.AfterOn(sn.N.ID, gap, func() {
		if sn.reqGen != gen || !w.Net.IsOnline(sn.N.ID) {
			return // superseded by a newer session's loop
		}
		w.issueRequest(sn)
		w.scheduleNextRequest(sn, gen)
	})
}

func (w *World) issueRequest(sn *ScenarioNode) {
	sn.reqSeq++
	var item *Item
	switch {
	case len(sn.personal) > 0 && sn.rng.Float64() < w.cfg.PersonalFrac:
		item = &w.Catalog.Items[sn.personal[sn.rng.Intn(len(sn.personal))]]
	case sn.rng.Float64() < w.cfg.GlobalHotFrac:
		item = w.sampleGatewayItem(1, sn.rng)
	case sn.rng.Float64() < w.cfg.GlobalWarmFrac:
		item = w.sampleWarmItem(sn.rng)
	default:
		item = w.Catalog.Sample(sn.rng)
	}
	if item == nil {
		return // empty catalog: nothing to request
	}
	// Root span: this callback runs as the node's own event code, so the
	// exact event time and the resolve callback's clock are both this node's.
	// The trace ID comes from the seed, the requester and its request
	// sequence, so every engine samples the same requests.
	var span *otrace.SpanHandle
	var tc otrace.Ctx
	if tr := w.Net.Tracer(); tr != nil {
		trace := otrace.TraceID(w.cfg.Seed, sn.N.ID[:], sn.reqSeq)
		if tr.ShouldSample(trace) {
			span = tr.Root(trace, "request", sn.N.ID.String(), w.Net.EventTime(sn.N.ID))
			tc = span.Ctx()
		}
	}
	id := sn.N.ID
	if item.MultiBlock && item.Resolvable {
		sn.N.Fetch(tc, item.Root, func(ok bool) {
			if ok {
				span.End(w.Net.EventTime(id))
			} else {
				span.EndDropped(w.Net.EventTime(id))
			}
		})
		return
	}
	sn.N.Request(tc, item.Root, func(_ []byte, ok bool) {
		if ok {
			span.End(w.Net.EventTime(id))
		} else {
			span.EndDropped(w.Net.EventTime(id))
		}
	})
}

// scheduleUpgrades arms the v0.5 upgrade wave for Fig. 4 scenarios.
func (w *World) scheduleUpgrades() {
	if w.cfg.LegacyFrac <= 0 || w.cfg.UpgradeDailyFrac <= 0 {
		return
	}
	var tick func()
	tick = func() {
		for _, sn := range w.Nodes {
			if sn.Legacy && w.rng.Float64() < w.cfg.UpgradeDailyFrac {
				sn.Legacy = false
				// The bitswap engine belongs to the node's shard; marshal
				// the config flip there instead of mutating it from the
				// control-affine upgrade loop.
				nd := sn.N
				w.Net.Post(nd.ID, func() { nd.Bitswap.SetLegacyWantBlock(false) })
			}
		}
		w.Net.After(24*time.Hour, tick)
	}
	w.Net.At(w.cfg.Start.Add(w.cfg.UpgradeAfter.Std()), tick)
}

// armGatewayTraffic schedules HTTP request streams per operator.
func (w *World) armGatewayTraffic() {
	byOp := w.Registry.ByOperator()
	for _, op := range w.cfg.Gateways {
		gws := byOp[op.Name]
		if len(gws) == 0 || op.RequestsPerHour <= 0 {
			continue
		}
		opSpec := op
		// reqSeq numbers this operator's HTTP requests for deterministic
		// trace IDs (the ticks run in a single control-affine stream).
		var reqSeq uint64
		var tick func()
		tick = func() {
			g := gws[w.rng.Intn(len(gws))]
			var root cid.CID
			if w.rng.Float64() < opSpec.HotBias {
				if item := w.sampleGatewayItem(1, w.rng); item != nil {
					root = item.Root
				}
			} else {
				// Long-tail web request: a one-off CID. The real CID
				// universe is effectively unbounded (806M unique CIDs in
				// the paper's trace), so tail requests almost never
				// collide; generating a fresh item reproduces that.
				var err error
				root, err = w.newWebItem()
				if err != nil {
					if item := w.sampleGatewayItem(1, w.rng); item != nil {
						root = item.Root
					}
				}
			}
			if root.Defined() {
				reqSeq++
				var trace uint64
				if tr := w.Net.Tracer(); tr != nil {
					if t := otrace.TraceID(w.cfg.Seed, []byte(opSpec.Name), reqSeq); tr.ShouldSample(t) {
						trace = t
					}
				}
				// Gateways are pinned to the control shard, where this tick
				// runs, so the gateway node's event clock is exact here.
				g.Retrieve(trace, root, func(gateway.Result) {})
			}
			gap := time.Duration(w.rng.ExpFloat64() / opSpec.RequestsPerHour * float64(time.Hour))
			if gap < 100*time.Millisecond {
				gap = 100 * time.Millisecond
			}
			w.Net.After(gap, tick)
		}
		w.Net.After(time.Duration(w.rng.ExpFloat64()*float64(time.Minute)), tick)
	}
}

// sampleWarmItem draws uniformly from the warm tier: the catalog slice
// right after the hot head.
func (w *World) sampleWarmItem(rng *rand.Rand) *Item {
	nHot := 0
	for nHot < len(w.Catalog.Items) && w.Catalog.Items[nHot].Hot {
		nHot++
	}
	warm := w.cfg.WarmItems
	if warm <= 0 {
		warm = len(w.Catalog.Items) / 20
	}
	if warm <= 0 || nHot+warm > len(w.Catalog.Items) {
		return w.Catalog.Sample(rng)
	}
	return &w.Catalog.Items[nHot+rng.Intn(warm)]
}

// newWebItem creates, stores and announces a fresh one-off content item at
// a random stable publisher, returning its root CID.
func (w *World) newWebItem() (cid.CID, error) {
	content := make([]byte, 256+w.rng.Intn(2048))
	w.rng.Read(content)
	// Web content is a file: a single DagProtobuf node carrying the bytes,
	// so Table I attributes gateway traffic to DagProtobuf as the real
	// trace does.
	node := &merkledag.Node{Kind: merkledag.KindFile, Data: content}
	enc := node.Encode()
	root := cid.Sum(node.Codec(), enc)
	for _, sn := range w.Nodes {
		if !sn.Stable || !w.Net.IsOnline(sn.N.ID) {
			continue
		}
		// The blockstore is internally locked, so the write stays
		// synchronous even when the publisher lives on another shard. Only
		// the DHT announcement touches shard-owned routing state and is
		// marshalled there; retrieval simply races the (sub-window) announce
		// delay, as a real gateway fetch races propagation.
		sn.N.Store.Put(root, enc)
		nd := sn.N
		w.Net.Post(nd.ID, func() { nd.DHT.Provide(dht.KeyForCID(root), nil) })
		return root, nil
	}
	return cid.CID{}, fmt.Errorf("workload: no online publisher for web item")
}

func (w *World) sampleGatewayItem(hotBias float64, rng *rand.Rand) *Item {
	if rng.Float64() < hotBias {
		// Hot items sit at the front of the catalog.
		nHot := 0
		for nHot < len(w.Catalog.Items) && w.Catalog.Items[nHot].Hot {
			nHot++
		}
		if nHot > 0 {
			return &w.Catalog.Items[rng.Intn(nHot)]
		}
	}
	return w.Catalog.Sample(rng)
}

// OnlineCount returns the current number of online population nodes
// (including the bootstrap core, excluding monitors and gateways): the
// ground truth N for the size-estimation experiments.
func (w *World) OnlineCount() int {
	n := 0
	for _, sn := range w.Nodes {
		if w.Net.IsOnline(sn.N.ID) {
			n++
		}
	}
	return n
}

// TotalPopulation returns the total number of population nodes.
func (w *World) TotalPopulation() int { return len(w.Nodes) }

// GatewayNodeIDs returns the ground-truth gateway node IDs.
func (w *World) GatewayNodeIDs() map[simnet.NodeID]bool {
	out := make(map[simnet.NodeID]bool, len(w.Gateways))
	for _, g := range w.Gateways {
		out[g.Node.ID] = true
	}
	return out
}

// MegagateIDs returns the node IDs of the large operator's gateways, the
// subset Fig. 6 plots on its own.
func (w *World) MegagateIDs() map[simnet.NodeID]bool {
	out := make(map[simnet.NodeID]bool)
	for _, g := range w.Gateways {
		if g.Operator == "megagate" {
			out[g.Node.ID] = true
		}
	}
	return out
}

// Run advances the world by d of virtual time.
func (w *World) Run(d time.Duration) { w.Net.Run(d) }
