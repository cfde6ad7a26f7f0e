package report

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/geoip"
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
	// BootstrapIters bounds the CSN bootstrap of the power-law test that
	// fig5 and popularity read: one test per distribution per pass, drawn
	// from an RNG every pass seeds alike. Default 50.
	BootstrapIters int
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
	// (one per run, and one per pane of a WindowedDriver), or by New for a
	// report built outside a driver, which is a pass of its own.
	pass *passState
}

// passState is what the reports of one pass over a stream share: the
// numbering of its peers and CIDs, one popularity accumulator over its
// deduplicated requests, and the Sec. V-E result scored from it. The panes
// of a WindowedDriver are passes that share one numbering.
type passState struct {
	syms    *trace.Symbols
	counter *popularity.Counter
	iters   int        // bootstrap budget of the power-law tests
	pop     *popScores // nil until the first Finalize that reads it
}

// popScores is a pass's Sec. V-E result: its RRP and URP values in
// ascending order, what fig5 and popularity both show of them, and the CSN
// test of each, run at most once. One RNG, seeded alike in every pass, draws
// the tests in index order, so a test's result depends neither on which
// report finalizes first nor on what else the process draws.
type popScores struct {
	vals  [2][]int // by rrpDist, urpDist
	dists scoreDists
	rng   *rand.Rand
	fits  [2]*FitResult // nil until run
}

// The distributions of popScores, in the order their tests run.
const (
	rrpDist = iota
	urpDist
)

// scores returns the pass's Sec. V-E result, built from its counter at the
// first call.
func (p *passState) scores() *popScores {
	if p.pop == nil {
		rrp, urp := p.counter.SortedValues()
		p.pop = &popScores{vals: [2][]int{rrp, urp}, rng: rand.New(rand.NewSource(1)), dists: scoreDists{
			CIDs:      len(rrp),
			RRPECDF:   popularity.ECDF(rrp),
			URPECDF:   popularity.ECDF(urp),
			URPShare1: popularity.ShareWithValue(urp, 1),
		}}
	}
	return p.pop
}

// fit returns the CSN test of the pass's distribution i, running the tests
// before it first.
func (p *passState) fit(i int) FitResult {
	s := p.scores()
	for j := 0; j <= i; j++ {
		if s.fits[j] == nil {
			f := testPowerLaw(s.vals[j], p.iters, s.rng)
			s.fits[j] = &f
		}
	}
	return *s.fits[i]
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

// reports maps each built-in report's name to its constructor. Adding a
// report means adding its entry here; New, Names, bsanalyze -report, sweep
// specs and the daemon's -window-reports all read this table.
var reports = map[string]func(Options) (Report, error){
	"summary": func(o Options) (Report, error) {
		return &summaryReport{z: trace.NewSummarizerWith(o.pass.syms)}, nil
	},
	"traffic": func(o Options) (Report, error) {
		return &trafficReport{gatewayIDs: o.GatewayIDs}, nil
	},
	"online": func(o Options) (Report, error) {
		syms := o.pass.syms
		return &onlineReport{z: trace.NewSummarizerWith(syms), fig4: newFig4(o), syms: syms, topK: o.topK()}, nil
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
	"fig4": func(o Options) (Report, error) { return newFig4(o), nil },
	"fig5": func(o Options) (Report, error) { return &fig5Report{newPopFeed(o)}, nil },
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
	"popularity":        func(o Options) (Report, error) { return &popularityReport{newPopFeed(o)}, nil },
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
	if err != nil {
		return err
	}
	return r.z.Merge(f.z)
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

// onlineReport is summary's and fig4's accumulators over online's own view,
// plus each CID's request count by its id in the pass's Symbols for the top
// K: its own counts, not the pass's popularity counter, which also holds
// every (CID, peer) pair.
type onlineReport struct {
	z      *trace.Summarizer
	fig4   *fig4Report
	syms   *trace.Symbols
	counts []int // requests by CID id; 0 for CIDs this report saw no request of
	topK   int
	cids   []cid.CID // the id → CID table as freeze took it, to rank by
	frozen bool
}

func (r *onlineReport) WantsDedup() bool { return true }

func (r *onlineReport) Observe(e trace.Entry) error {
	r.z.Write(e)
	if e.IsRequest() {
		r.fig4.add(e.Timestamp, e.Type)
		// The Summarizer has just resolved this CID: the memo answers.
		r.count(r.syms.CID(e.CID), 1)
	}
	return nil
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
	if err := r.z.Merge(f.z); err != nil {
		return err
	}
	for id, n := range f.counts {
		if n > 0 {
			r.count(uint32(id), n)
		}
	}
	return r.fig4.Merge(f.fig4)
}

func (r *onlineReport) freeze() { r.cids, r.frozen = r.syms.CIDs(), true }

func (r *onlineReport) Finalize() (Result, error) {
	if !r.frozen {
		r.freeze()
	}
	s := r.z.Summary()
	fig := r.fig4.series()
	return &Online{
		Entries:       s.Entries,
		Requests:      s.Requests,
		DistinctPeers: s.UniquePeers,
		DistinctCIDs:  s.UniqueCIDs,
		First:         s.First,
		Last:          s.Last,
		PerType:       s.PerType,
		BucketSize:    fig.BucketSize,
		Buckets:       fig.Buckets,
		TopK:          r.topK,
		TopCIDs:       popularity.Rank(r.cids, r.counts, r.topK),
	}, nil
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

func newFig4(o Options) *fig4Report {
	return &fig4Report{bucket: o.bucket(), byBucket: make(map[int64]*Fig4Bucket)}
}

func (r *fig4Report) WantsDedup() bool { return true }

func (r *fig4Report) Observe(e trace.Entry) error {
	if e.IsRequest() {
		r.add(e.Timestamp, e.Type)
	}
	return nil
}

// add counts one request of type typ at ts.
func (r *fig4Report) add(ts time.Time, typ wire.EntryType) {
	k := ts.UnixNano() / int64(r.bucket)
	b, ok := r.byBucket[k]
	if !ok {
		b = &Fig4Bucket{Start: time.Unix(0, k*int64(r.bucket)).UTC()}
		r.byBucket[k] = b
	}
	switch typ {
	case wire.WantBlock:
		b.WantBlock++
	case wire.WantHave:
		b.WantHave++
	}
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

func (r *fig4Report) Finalize() (Result, error) { return r.series(), nil }

// series returns the buckets counted so far in time order.
func (r *fig4Report) series() *Fig4 {
	f := &Fig4{BucketSize: r.bucket}
	for _, b := range r.byBucket {
		f.Buckets = append(f.Buckets, *b)
	}
	f.sortBuckets()
	return f
}

// --- fig5: content popularity ----------------------------------------------

// popFeed is what fig5 and popularity share: the pass whose one popularity
// counter the first of them to be constructed writes, and whose Sec. V-E
// result both read. Every report scoring popularity wants the same stream
// (deduplicated requests), so one pass keeps one set of (CID, peer) pairs;
// the report that does not feed the counter reads it only through the
// pass's result.
type popFeed struct {
	pass *passState
	feed bool
}

func newPopFeed(o Options) popFeed {
	feed := o.pass.counter == nil
	if feed {
		o.pass.counter = popularity.NewCounterWith(o.pass.syms)
		o.pass.iters = o.bootstrapIters()
	}
	return popFeed{pass: o.pass, feed: feed}
}

func (p popFeed) WantsDedup() bool { return true }

func (p popFeed) Observe(e trace.Entry) error {
	if !p.feed {
		return nil
	}
	return p.pass.counter.Write(e)
}

// merge folds from's counter into p's when p is the report that feeds it.
func (p popFeed) merge(from popFeed) error {
	if !p.feed {
		return nil
	}
	return p.pass.counter.Merge(from.pass.counter)
}

// testPowerLaw runs the CSN test on values. A sample too small to fit (a
// quiet window of a daemon) is recorded in the result, not returned: the
// ECDFs and shares beside it still stand.
func testPowerLaw(values []int, iters int, rng *rand.Rand) FitResult {
	rejected, fit, p, err := popularity.RejectsPowerLaw(values, iters, rng)
	if err != nil {
		return FitResult{Err: err.Error()}
	}
	return FitResult{Fitted: true, Fit: fit, PValue: p, Rejected: rejected}
}

type fig5Report struct{ popFeed }

func (r *fig5Report) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err != nil {
		return err
	}
	return r.merge(f.popFeed)
}

func (r *fig5Report) Finalize() (Result, error) {
	return &Fig5{scoreDists: r.pass.scores().dists, RRP: r.pass.fit(rrpDist), URP: r.pass.fit(urpDist)}, nil
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

type popularityReport struct{ popFeed }

func (r *popularityReport) Merge(from Report) error {
	f, err := mergeable(r, from)
	if err != nil {
		return err
	}
	return r.merge(f.popFeed)
}

func (r *popularityReport) Finalize() (Result, error) {
	return &Popularity{scoreDists: r.pass.scores().dists, RRP: r.pass.fit(rrpDist)}, nil
}
