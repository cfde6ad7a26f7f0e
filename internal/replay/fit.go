package replay

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/popularity"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// Model holds the empirical models fitted to a trace: everything a
// FittedSource needs to generate a statistically matched workload at an
// arbitrary population scale. All figures are computed on the deduplicated
// request stream (no CANCELs, no re-broadcasts, no inter-monitor
// duplicates), the same view the paper's popularity analysis uses.
type Model struct {
	// Duration spans the first to the last entry.
	Duration time.Duration
	// Phase is the trace start's offset within its UTC day, anchoring the
	// diurnal shape when generating.
	Phase time.Duration
	// Entries counts raw entries (diagnostics).
	Entries int
	// Requests counts deduplicated requests — the fitted volume.
	Requests int
	// Requesters counts distinct requesting peers.
	Requesters int
	// WantBlockShare is the WANT_BLOCK fraction of deduplicated requests.
	WantBlockShare float64
	// Hourly is the deduplicated request share per UTC hour of day
	// (sums to 1 when Requests > 0).
	Hourly [24]float64
	// HourlySpan is how much of the trace window falls in each UTC hour of
	// day. Dividing Hourly×Requests by it yields the empirical per-hour
	// request rate, which keeps fitted volume honest for traces that cover
	// partial days (a one-hour trace is not a 24×-peaked day).
	HourlySpan [24]time.Duration
	// Activity is each requester's deduplicated request count, descending:
	// the empirical requester-activity distribution.
	Activity []int
	// Popularity is each CID's deduplicated request count (RRP),
	// descending, ties broken by CID key for determinism.
	Popularity []popularity.CIDCount
	// PowerLaw is the CSN fit over the RRP values, nil when the trace is
	// too small to fit. Fitted replays should preserve Alpha.
	PowerLaw *popularity.PowerLawFit
}

// Fit streams a unified trace once and fits the empirical models. The
// source must carry Sec. IV-B flags (come through ingest.StreamUnifier);
// memory is proportional to distinct requesters and CIDs, not trace length.
func Fit(src ingest.EntrySource) (*Model, error) {
	m := &Model{}
	syms := trace.NewSymbols()
	var rrp []int // deduplicated requests by CID id of syms
	perRequester := make(map[simnet.NodeID]int)
	wantBlocks := 0
	var first, last time.Time
	for {
		e, err := src.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("replay: fit: %w", err)
		}
		m.Entries++
		if first.IsZero() {
			first = e.Timestamp
		}
		if e.Timestamp.After(last) {
			last = e.Timestamp
		}
		if e.IsDuplicate() || !e.IsRequest() {
			continue
		}
		m.Requests++
		perRequester[e.NodeID]++
		m.Hourly[e.Timestamp.UTC().Hour()]++
		if e.Type == wire.WantBlock {
			wantBlocks++
		}
		// syms numbers CIDs here only, densely: a new id is len(rrp).
		if id := syms.CID(e.CID); int(id) < len(rrp) {
			rrp[id]++
		} else {
			rrp = append(rrp, 1)
		}
	}
	if m.Requests == 0 {
		return nil, fmt.Errorf("replay: fit: trace contains no deduplicated requests")
	}
	m.Duration = last.Sub(first)
	m.Phase = first.UTC().Sub(first.UTC().Truncate(24 * time.Hour))
	for at := first.UTC(); at.Before(last); {
		next := at.Truncate(time.Hour).Add(time.Hour)
		if next.After(last) {
			next = last.UTC()
		}
		m.HourlySpan[at.Hour()] += next.Sub(at)
		at = next
	}
	m.Requesters = len(perRequester)
	m.WantBlockShare = float64(wantBlocks) / float64(m.Requests)
	for h := range m.Hourly {
		m.Hourly[h] /= float64(m.Requests)
	}
	m.Activity = make([]int, 0, len(perRequester))
	for _, n := range perRequester {
		m.Activity = append(m.Activity, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(m.Activity)))

	m.Popularity = popularity.Rank(syms.CIDs(), rrp, len(rrp))
	values := make([]int, len(m.Popularity))
	for i, cc := range m.Popularity {
		values[i] = cc.Count
	}
	if fit, err := popularity.FitPowerLaw(values); err == nil {
		m.PowerLaw = &fit
	}
	return m, nil
}

// FittedOptions tunes workload generation from a fitted model.
type FittedOptions struct {
	// Amplify multiplies both the requester population and the request
	// volume: 10 generates a 10× population issuing 10× the requests over
	// the model's duration, with the same popularity, activity and diurnal
	// shapes. Default 1.
	Amplify float64
	// Seed drives the generator's deterministic draws.
	Seed int64
}

// FittedSource generates a synthetic event stream statistically matched to
// a fitted model: arrivals follow an inhomogeneous Poisson process shaped
// by the model's diurnal curve, requesters are drawn proportionally to
// activity weights resampled from the empirical distribution, and CIDs are
// drawn proportionally to the fitted popularity. Events carry no monitor
// (broadcast), so replay nodes fan them out to their connected monitors
// like real clients.
type FittedSource struct {
	rng      *rand.Rand
	duration time.Duration
	phase    time.Duration
	// hourRate is the amplified request rate (events per nanosecond) per
	// UTC hour of day; peak is its maximum, the thinning envelope.
	hourRate [24]float64
	peak     float64

	requesters []simnet.NodeID
	reqCum     []float64
	cidCum     []float64
	cids       []cid.CID

	wantBlockShare float64
	now            time.Duration
	done           bool
}

// NewFittedSource prepares a generator over the model.
func NewFittedSource(m *Model, opts FittedOptions) (*FittedSource, error) {
	if m.Requests == 0 || len(m.Popularity) == 0 || len(m.Activity) == 0 {
		return nil, fmt.Errorf("replay: fitted source needs a non-empty model")
	}
	if opts.Amplify <= 0 {
		opts.Amplify = 1
	}
	if m.Duration <= 0 {
		return nil, fmt.Errorf("replay: model spans zero time")
	}
	s := &FittedSource{
		rng:            rand.New(rand.NewSource(opts.Seed ^ 0x5eed4ef1)),
		duration:       m.Duration,
		phase:          m.Phase,
		wantBlockShare: m.WantBlockShare,
	}
	// Requester pool: |observed| × amplify synthetic requesters, each
	// weighted by a draw from the empirical activity distribution.
	n := int(math.Ceil(float64(m.Requesters) * opts.Amplify))
	if n < 1 {
		n = 1
	}
	s.requesters = make([]simnet.NodeID, n)
	s.reqCum = make([]float64, n)
	acc := 0.0
	for i := range s.requesters {
		s.requesters[i] = simnet.DeriveNodeID([]byte(fmt.Sprintf("fitted-req-%d", i)))
		acc += float64(m.Activity[s.rng.Intn(len(m.Activity))])
		s.reqCum[i] = acc
	}
	// Popularity table.
	s.cids = make([]cid.CID, len(m.Popularity))
	s.cidCum = make([]float64, len(m.Popularity))
	acc = 0
	for i, cc := range m.Popularity {
		s.cids[i] = cc.CID
		acc += float64(cc.Count)
		s.cidCum[i] = acc
	}
	// Empirical hourly rates: requests observed in each hour of day divided
	// by the time the trace window spent there, scaled by the amplification.
	// Hours the trace never saw requests in stay silent in the generated
	// stream too; a one-second span floor guards boundary hours that hold an
	// observation but (nearly) zero window time.
	for h := range m.Hourly {
		if m.Hourly[h] <= 0 {
			continue
		}
		span := m.HourlySpan[h]
		if span < time.Second {
			span = time.Second
		}
		s.hourRate[h] = m.Hourly[h] * float64(m.Requests) / float64(span) * opts.Amplify
		if s.hourRate[h] > s.peak {
			s.peak = s.hourRate[h]
		}
	}
	if s.peak <= 0 {
		return nil, fmt.Errorf("replay: model has an all-zero diurnal shape")
	}
	return s, nil
}

// Next returns the next generated event, or io.EOF once the model duration
// is exhausted. Arrival times use thinning: candidate gaps are drawn at the
// diurnal peak rate and accepted with probability rate(t)/peak.
func (s *FittedSource) Next() (Event, error) {
	if s.done {
		return Event{}, io.EOF
	}
	for {
		gap := s.rng.ExpFloat64() / s.peak
		s.now += time.Duration(gap)
		if s.now > s.duration {
			s.done = true
			return Event{}, io.EOF
		}
		hour := int(((s.phase + s.now) / time.Hour) % 24)
		if s.rng.Float64()*s.peak >= s.hourRate[hour] {
			continue
		}
		ev := Event{
			Offset:    s.now,
			Requester: s.requesters[searchCum(s.reqCum, s.rng)],
			CID:       s.cids[searchCum(s.cidCum, s.rng)],
			Type:      wire.WantHave,
		}
		if s.rng.Float64() < s.wantBlockShare {
			ev.Type = wire.WantBlock
		}
		return ev, nil
	}
}

// searchCum draws an index proportional to the cumulative weight table.
func searchCum(cum []float64, rng *rand.Rand) int {
	u := rng.Float64() * cum[len(cum)-1]
	idx := sort.SearchFloat64s(cum, u)
	if idx >= len(cum) {
		idx = len(cum) - 1
	}
	return idx
}
