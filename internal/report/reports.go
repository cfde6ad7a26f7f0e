package report

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/geoip"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/popularity"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// Options carries every knob a built-in report can need. Reports read only
// the fields they care about; zero values take the documented defaults, so
// callers state only what they vary.
type Options struct {
	// Bucket is the fig4/online time-bucket and fig6 time-slice width.
	// Default 1h.
	Bucket time.Duration
	// TopK is how many popular CIDs the online report lists. Default 10.
	TopK int
	// BootstrapIters bounds the CSN bootstrap of fig5/popularity.
	// Default 50.
	BootstrapIters int
	// Rand provides the bootstrap RNG. It is invoked at Finalize time, not
	// construction time, so engine-derived RNG streams keep their draw
	// order no matter when the report was attached. Default: a fixed
	// rand.NewSource(1), for reproducible standalone analyses.
	Rand func() *rand.Rand
	// Geo resolves addresses to countries (table2). The table2
	// constructor fails with ErrNilGeoDB when it is nil.
	Geo *geoip.DB
	// GatewayIDs and MegagateIDs classify requesters for fig6 and the
	// traffic report's gateway share. Nil maps classify everything as
	// non-gateway.
	GatewayIDs  map[simnet.NodeID]bool
	MegagateIDs map[simnet.NodeID]bool
	// Tracer is the span recorder a traced run filled. The
	// latency_breakdown constructor fails with ErrNoTracer when it is nil.
	Tracer *otrace.Tracer

	// pass is the state the reports of one pass share; set by the Driver
	// (one per run, and one per pane of a WindowedDriver), read by
	// constructors through Symbols and Counter.
	pass *passState
}

// passState is what the reports of one pass over a stream share: one
// numbering of its peers and CIDs, and one popularity accumulator over its
// deduplicated requests.
type passState struct {
	syms    *trace.Symbols
	counter *popularity.Counter
}

func newPassState() *passState { return &passState{syms: trace.NewSymbols()} }

// Symbols returns the peer/CID numbering a report constructor should hand
// to trace.NewSummarizerWith / popularity.NewCounterWith: the one shared by
// every report the calling driver constructs for the same pass, or a fresh
// private one when the report is built outside a driver.
func (o Options) Symbols() *trace.Symbols {
	if o.pass != nil {
		return o.pass.syms
	}
	return trace.NewSymbols()
}

// Counter returns the pass's popularity accumulator and whether the caller
// is the report that feeds it. Every report scoring popularity wants the
// same stream (deduplicated requests), so one pass keeps one set of (CID,
// peer) pairs: the first constructor to ask writes each entry to it, later
// ones only read it when they finalize. Outside a driver the counter is
// private and the caller feeds it.
func (o Options) Counter() (c *popularity.Counter, feed bool) {
	if o.pass == nil {
		return popularity.NewCounter(), true
	}
	if o.pass.counter != nil {
		return o.pass.counter, false
	}
	o.pass.counter = popularity.NewCounterWith(o.pass.syms)
	return o.pass.counter, true
}

func (o Options) bucket() time.Duration {
	if o.Bucket <= 0 {
		return time.Hour
	}
	return o.Bucket
}

func (o Options) topK() int {
	if o.TopK <= 0 {
		return 10
	}
	return o.TopK
}

func (o Options) bootstrapIters() int {
	if o.BootstrapIters <= 0 {
		return 50
	}
	return o.BootstrapIters
}

func (o Options) rand() *rand.Rand {
	if o.Rand != nil {
		return o.Rand()
	}
	return rand.New(rand.NewSource(1))
}

// reports maps each built-in report's name to its constructor. Adding a
// report means adding its entry here; New, Names, bsanalyze -report, sweep
// specs and the daemon's -window-reports all read this table.
var reports = map[string]func(Options) (Report, error){
	"summary": func(o Options) (Report, error) {
		return &summaryReport{z: trace.NewSummarizerWith(o.Symbols())}, nil
	},
	"traffic": func(o Options) (Report, error) {
		return &trafficReport{gatewayIDs: o.GatewayIDs}, nil
	},
	"online": func(o Options) (Report, error) {
		return &onlineReport{
			stats: ingest.NewOnlineStats(ingest.StatsOptions{Bucket: o.bucket()}),
			syms:  o.Symbols(),
			topK:  o.topK(),
		}, nil
	},
	"table1": func(Options) (Report, error) {
		return &table1Report{counts: make(map[cid.Codec]int)}, nil
	},
	"table2": func(o Options) (Report, error) {
		if o.Geo == nil {
			return nil, ErrNilGeoDB
		}
		return &table2Report{db: o.Geo, counts: make(map[simnet.Region]int)}, nil
	},
	"fig4": func(o Options) (Report, error) {
		return &fig4Report{bucket: o.bucket(), byBucket: make(map[int64]*Fig4Bucket)}, nil
	},
	"fig5": func(o Options) (Report, error) {
		return &fig5Report{popFeed: newPopFeed(o), iters: o.bootstrapIters(), rng: o.rand}, nil
	},
	"fig6": func(o Options) (Report, error) {
		if o.GatewayIDs == nil {
			return nil, ErrNoGatewayIDs
		}
		return &fig6Report{
			slice:       o.bucket(),
			gatewayIDs:  o.GatewayIDs,
			megagateIDs: o.MegagateIDs,
			bySlice:     make(map[int64]*Fig6Slice),
		}, nil
	},
	"popularity": func(o Options) (Report, error) {
		return &popularityReport{popFeed: newPopFeed(o), iters: o.bootstrapIters(), rng: o.rand}, nil
	},
	"latency_breakdown": newLatencyReport,
}

// --- summary: raw unified-trace summary ------------------------------------

type summaryReport struct{ z *trace.Summarizer }

func (r *summaryReport) WantsDedup() bool            { return false }
func (r *summaryReport) Observe(e trace.Entry) error { return r.z.Write(e) }
func (r *summaryReport) Finalize() (Result, error) {
	return &SummaryResult{Summary: r.z.Summary()}, nil
}

func (r *summaryReport) Merge(from Report) error {
	f, err := mergeable[*summaryReport](r, from)
	if err == nil {
		r.z.Merge(f.z)
	}
	return err
}

// mergeable returns from as the concrete type of the report merging it.
func mergeable[T Report](r T, from Report) (T, error) {
	f, ok := from.(T)
	if !ok {
		return f, fmt.Errorf("report: cannot merge %T into %T", from, r)
	}
	return f, nil
}

// --- traffic: dedup shares and gateway origin share ------------------------

// trafficReport observes the raw stream (dedup flags intact) and derives
// both views at once: raw counts, deduplicated counts, the rebroadcast
// share and the gateway traffic share — the per-run comparison metrics of
// sweep summaries.
type trafficReport struct {
	gatewayIDs map[simnet.NodeID]bool

	entries, requests           int
	dedupEntries, dedupRequests int
	gatewayDedupReqs            int
}

func (r *trafficReport) WantsDedup() bool { return false }

func (r *trafficReport) Observe(e trace.Entry) error {
	r.entries++
	if e.IsRequest() {
		r.requests++
	}
	if e.IsDuplicate() {
		return nil
	}
	r.dedupEntries++
	if e.IsRequest() {
		r.dedupRequests++
		if r.gatewayIDs[e.NodeID] {
			r.gatewayDedupReqs++
		}
	}
	return nil
}

// LiveMetrics exposes the traffic counters mid-stream: an open window's
// live numbers on /reports, before the window closes.
func (r *trafficReport) LiveMetrics() map[string]float64 {
	m := map[string]float64{
		"entries":        float64(r.entries),
		"requests":       float64(r.requests),
		"dedup_entries":  float64(r.dedupEntries),
		"dedup_requests": float64(r.dedupRequests),
	}
	if r.entries > 0 {
		m["rebroad_share"] = 1 - float64(r.dedupEntries)/float64(r.entries)
	}
	return m
}

func (r *trafficReport) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err == nil {
		r.entries += f.entries
		r.requests += f.requests
		r.dedupEntries += f.dedupEntries
		r.dedupRequests += f.dedupRequests
		r.gatewayDedupReqs += f.gatewayDedupReqs
	}
	return err
}

func (r *trafficReport) Finalize() (Result, error) {
	t := &Traffic{
		Entries:       r.entries,
		Requests:      r.requests,
		DedupEntries:  r.dedupEntries,
		DedupRequests: r.dedupRequests,
		HasGatewayIDs: r.gatewayIDs != nil,
	}
	if r.entries > 0 {
		t.RebroadShare = 1 - float64(r.dedupEntries)/float64(r.entries)
	}
	if r.dedupRequests > 0 {
		t.GatewayShare = float64(r.gatewayDedupReqs) / float64(r.dedupRequests)
	}
	return t, nil
}

// --- online: one-pass aggregates and the exact top K ----------------------

// onlineReport keeps the OnlineStats aggregates, the pass's distinct peers
// and CIDs as sets of their ids in the pass's Symbols, and each CID's
// request count by that id — its own counts, not the pass's popularity
// counter, which also holds every (CID, peer) pair.
type onlineReport struct {
	stats       *ingest.OnlineStats
	syms        *trace.Symbols
	peers, cids trace.IDSet
	counts      []int // requests by CID id; 0 for CIDs this report saw no request of
	topK        int
}

func (r *onlineReport) WantsDedup() bool { return true }

func (r *onlineReport) Observe(e trace.Entry) error {
	r.peers.Add(r.syms.Peer(e.NodeID))
	c := r.syms.CID(e.CID)
	r.cids.Add(c)
	if e.IsRequest() {
		r.count(c, 1)
	}
	return r.stats.Write(e)
}

func (r *onlineReport) count(id uint32, n int) {
	if int(id) >= len(r.counts) {
		r.counts = append(r.counts, make([]int, int(id)+1-len(r.counts))...)
	}
	r.counts[id] += n
}

func (r *onlineReport) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err != nil {
		return err
	}
	r.stats.Merge(f.stats)
	t := r.syms.Translate(f.syms)
	r.peers.AddMapped(&f.peers, t.Peers)
	r.cids.AddMapped(&f.cids, t.CIDs)
	for id, n := range f.counts {
		if n > 0 {
			r.count(t.CIDs[id], n)
		}
	}
	return nil
}

func (r *onlineReport) Finalize() (Result, error) {
	res := &Online{
		Entries:       r.stats.Entries(),
		Requests:      r.stats.Requests(),
		DistinctPeers: r.peers.Len(),
		DistinctCIDs:  r.cids.Len(),
		First:         r.stats.First(),
		Last:          r.stats.Last(),
		BucketSize:    r.stats.BucketSize(),
		Buckets:       r.stats.Buckets(),
		TopK:          r.topK,
		TopCIDs:       popularity.Rank(r.syms, r.counts, r.topK),
		PerType:       make(map[string]int64),
	}
	for typ, n := range r.stats.TypeCounts() {
		res.PerType[typ.String()] = n
	}
	return res, nil
}

// --- table1: multicodec shares ---------------------------------------------

type table1Report struct {
	counts map[cid.Codec]int
	total  int
}

func (r *table1Report) WantsDedup() bool { return false }

func (r *table1Report) Observe(e trace.Entry) error {
	if !e.IsRequest() {
		return nil
	}
	r.counts[e.CID.Codec()]++
	r.total++
	return nil
}

func (r *table1Report) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err == nil {
		for codec, n := range f.counts {
			r.counts[codec] += n
		}
		r.total += f.total
	}
	return err
}

func (r *table1Report) Finalize() (Result, error) {
	t := &Table1{Total: r.total}
	for codec, n := range r.counts {
		t.Rows = append(t.Rows, Table1Row{
			Codec: codec.String(),
			Count: n,
			Share: float64(n) / float64(r.total),
		})
	}
	t.sortRows()
	return t, nil
}

// --- table2: country shares ------------------------------------------------

// ErrNilGeoDB is returned by the table2 constructor when no GeoIP database
// was provided: resolving addresses without one would panic mid-stream.
var ErrNilGeoDB = errors.New("report: table2 needs a geoip database (Options.Geo is nil)")

type table2Report struct {
	db      *geoip.DB
	counts  map[simnet.Region]int
	total   int
	unknown int
}

func (r *table2Report) WantsDedup() bool { return true }

func (r *table2Report) Observe(e trace.Entry) error {
	if !e.IsRequest() {
		return nil
	}
	region, ok := r.db.Lookup(e.Addr)
	if !ok {
		r.unknown++
		return nil
	}
	r.counts[region]++
	r.total++
	return nil
}

func (r *table2Report) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err == nil {
		for region, n := range f.counts {
			r.counts[region] += n
		}
		r.total += f.total
		r.unknown += f.unknown
	}
	return err
}

func (r *table2Report) Finalize() (Result, error) {
	t := &Table2{Total: r.total, Unknown: r.unknown}
	for region, n := range r.counts {
		t.Rows = append(t.Rows, Table2Row{
			Country: region,
			Count:   n,
			Share:   float64(n) / float64(r.total),
		})
	}
	t.sortRows()
	return t, nil
}

// --- fig4: request types over time -----------------------------------------

type fig4Report struct {
	bucket   time.Duration
	byBucket map[int64]*Fig4Bucket
}

func (r *fig4Report) WantsDedup() bool { return true }

func (r *fig4Report) Observe(e trace.Entry) error {
	if !e.IsRequest() {
		return nil
	}
	k := e.Timestamp.UnixNano() / int64(r.bucket)
	b, ok := r.byBucket[k]
	if !ok {
		b = &Fig4Bucket{Start: time.Unix(0, k*int64(r.bucket)).UTC()}
		r.byBucket[k] = b
	}
	switch e.Type {
	case wire.WantBlock:
		b.WantBlock++
	case wire.WantHave:
		b.WantHave++
	}
	return nil
}

func (r *fig4Report) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err != nil {
		return err
	}
	for k, fb := range f.byBucket {
		if b, ok := r.byBucket[k]; ok {
			b.WantBlock += fb.WantBlock
			b.WantHave += fb.WantHave
		} else {
			b := *fb
			r.byBucket[k] = &b
		}
	}
	return nil
}

func (r *fig4Report) Finalize() (Result, error) {
	f := &Fig4{BucketSize: r.bucket}
	for _, b := range r.byBucket {
		f.Buckets = append(f.Buckets, *b)
	}
	f.sortBuckets()
	return f, nil
}

// --- fig5: content popularity ----------------------------------------------

// popFeed is the observing half fig5 and popularity share: the pass's one
// popularity counter, written by whichever of them was constructed first.
type popFeed struct {
	counter *popularity.Counter
	feed    bool
}

func newPopFeed(o Options) popFeed {
	c, feed := o.Counter()
	return popFeed{counter: c, feed: feed}
}

func (p popFeed) WantsDedup() bool { return true }

func (p popFeed) Observe(e trace.Entry) error {
	if !p.feed {
		return nil
	}
	return p.counter.Write(e)
}

// merge folds from's counter into p's when p is the report that feeds it.
func (p popFeed) merge(from popFeed) {
	if p.feed {
		p.counter.Merge(from.counter)
	}
}

type fig5Report struct {
	popFeed
	iters int
	rng   func() *rand.Rand
}

func (r *fig5Report) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err == nil {
		r.merge(f.popFeed)
	}
	return err
}

func (r *fig5Report) Finalize() (Result, error) {
	rrp, urp := r.counter.SortedValues()
	f := &Fig5{
		CIDs:      len(rrp),
		RRPECDF:   popularity.ECDF(rrp),
		URPECDF:   popularity.ECDF(urp),
		URPShare1: popularity.ShareWithValue(urp, 1),
	}
	// One RNG drives both bootstraps, RRP first — the draw order of the
	// batch pipeline this report replaced, so seeded runs stay
	// byte-identical.
	rng := r.rng()
	// A sample too small to fit (a quiet window of a daemon) is recorded in
	// the result, not returned: the ECDFs and shares above still stand.
	rejected, fit, pv, err := popularity.RejectsPowerLaw(rrp, r.iters, rng)
	if err != nil {
		f.RRPFitErr = err.Error()
	} else {
		f.RRPRejected, f.RRPFit, f.RRPPValue, f.RRPFitted = rejected, fit, pv, true
	}
	rejected, fit, pv, err = popularity.RejectsPowerLaw(urp, r.iters, rng)
	if err != nil {
		f.URPFitErr = err.Error()
	} else {
		f.URPRejected, f.URPFit, f.URPPValue, f.URPFitted = rejected, fit, pv, true
	}
	return f, nil
}

// --- fig6: request rates by origin group -----------------------------------

// ErrNoGatewayIDs is returned by the fig6 constructor when no gateway ID
// set was provided: without one every request classifies as non-gateway and
// the figure renders plausible-looking but meaningless zero gateway rates.
// Callers with genuinely no gateways pass an empty non-nil map.
var ErrNoGatewayIDs = errors.New("report: fig6 needs a gateway node ID set, which only simulation and sweep contexts can supply — a recorded trace alone cannot say which requesters were gateways")

type fig6Report struct {
	slice       time.Duration
	gatewayIDs  map[simnet.NodeID]bool
	megagateIDs map[simnet.NodeID]bool
	bySlice     map[int64]*Fig6Slice
}

func (r *fig6Report) WantsDedup() bool { return true }

func (r *fig6Report) Observe(e trace.Entry) error {
	if !e.IsRequest() {
		return nil
	}
	k := e.Timestamp.UnixNano() / int64(r.slice)
	s, ok := r.bySlice[k]
	if !ok {
		s = &Fig6Slice{Start: time.Unix(0, k*int64(r.slice)).UTC()}
		r.bySlice[k] = s
	}
	switch {
	case r.megagateIDs[e.NodeID]:
		s.Megagate++
		s.AllGateway++
	case r.gatewayIDs[e.NodeID]:
		s.AllGateway++
	default:
		s.NonGateway++
	}
	return nil
}

// Merge adds from's per-slice request counts. Finalize divides them by the
// slice width, so from must not have been finalized.
func (r *fig6Report) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err != nil {
		return err
	}
	for k, fs := range f.bySlice {
		if s, ok := r.bySlice[k]; ok {
			s.AllGateway += fs.AllGateway
			s.Megagate += fs.Megagate
			s.NonGateway += fs.NonGateway
		} else {
			s := *fs
			r.bySlice[k] = &s
		}
	}
	return nil
}

func (r *fig6Report) Finalize() (Result, error) {
	f := &Fig6{SliceSize: r.slice}
	secs := r.slice.Seconds()
	for _, s := range r.bySlice {
		s.AllGateway /= secs
		s.Megagate /= secs
		s.NonGateway /= secs
		f.Slices = append(f.Slices, *s)
	}
	f.sortSlices()
	return f, nil
}

// --- popularity: RRP/URP ECDFs + power-law fit ------------------------------

type popularityReport struct {
	popFeed
	iters int
	rng   func() *rand.Rand
}

func (r *popularityReport) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err == nil {
		r.merge(f.popFeed)
	}
	return err
}

func (r *popularityReport) Finalize() (Result, error) {
	rrp, urp := r.counter.SortedValues()
	p := &Popularity{
		CIDs:      r.counter.CIDs(),
		RRPECDF:   popularity.ECDF(rrp),
		URPECDF:   popularity.ECDF(urp),
		URPShare1: popularity.ShareWithValue(urp, 1),
	}
	rejected, fit, pv, err := popularity.RejectsPowerLaw(rrp, r.iters, r.rng())
	if err != nil {
		p.RRPFitErr = err.Error()
	} else {
		p.RRPRejected, p.RRPFit, p.RRPPValue = rejected, fit, pv
		p.RRPFitted = true
	}
	return p, nil
}
