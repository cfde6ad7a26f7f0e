package popularity

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// PowerLawFit is the result of fitting a discrete power law to tail data,
// following Clauset, Shalizi & Newman (2009) as cited by the paper [30].
type PowerLawFit struct {
	// Alpha is the MLE scaling exponent for x >= Xmin.
	Alpha float64
	// Xmin is the tail cut-off minimising the KS distance.
	Xmin int
	// KS is the Kolmogorov–Smirnov distance of the best fit.
	KS float64
	// NTail is the number of observations in the fitted tail.
	NTail int
}

// ErrTooFewSamples is returned when the data cannot support a fit.
var ErrTooFewSamples = errors.New("popularity: too few samples for power-law fit")

// run is a value and the number of observations that take it. The xmin
// scan works on a sample's runs in ascending order of value.
type run struct{ v, n int }

// denseCut bounds the values a tally counts in its histogram. Counts sit
// mostly at small values with a thin tail above (most CIDs are requested
// once), so the few values at or past the cut are kept and sorted apart.
const denseCut = 1024

// tally turns observations, added in any order, into ascending runs without
// a sort of the whole sample. Its buffers are reused from one sample to the
// next.
type tally struct {
	dense []int // dense[v] observations of v, for 0 <= v < denseCut
	top   int   // 1 + the largest value counted in dense since the last runs
	spill []int // observations outside [0, denseCut)
	out   []run
}

func (t *tally) add(v int) {
	if v < 0 || v >= denseCut {
		t.spill = append(t.spill, v)
		return
	}
	if t.dense == nil {
		t.dense = make([]int, denseCut)
	}
	t.dense[v]++
	t.top = max(t.top, v+1)
}

// runs returns the observations added since the last call as ascending
// runs and empties the tally. The slice is reused by the next call.
func (t *tally) runs() []run {
	sort.Ints(t.spill)
	out := t.out[:0]
	i := 0
	for ; i < len(t.spill) && t.spill[i] < 0; i++ {
		out = appendRun(out, t.spill[i])
	}
	for v := 0; v < t.top; v++ {
		if c := t.dense[v]; c > 0 {
			out = append(out, run{v, c})
			t.dense[v] = 0
		}
	}
	for ; i < len(t.spill); i++ {
		out = appendRun(out, t.spill[i])
	}
	t.top, t.spill, t.out = 0, t.spill[:0], out
	return out
}

// appendRun adds one observation of v to ascending runs.
func appendRun(runs []run, v int) []run {
	if k := len(runs) - 1; k >= 0 && runs[k].v == v {
		runs[k].n++
		return runs
	}
	return append(runs, run{v, 1})
}

// alphaMLE computes the continuous-approximation MLE for the exponent given
// the runs of a tail of n observations and xmin: alpha = 1 + n / Σ ln(x_i /
// (xmin - 0.5)). One logarithm is taken per run and added once per element,
// in element order, so the sum is bit-identical to the per-element formula.
func alphaMLE(tail []run, n, xmin int) float64 {
	var s float64
	d := float64(xmin) - 0.5
	for _, r := range tail {
		l := math.Log(float64(r.v) / d)
		for range r.n {
			s += l
		}
	}
	if s == 0 {
		return math.Inf(1)
	}
	return 1 + float64(n)/s
}

// tailCCDF is the fitted complementary CDF P(X >= x) under the continuous
// approximation to the discrete power law.
func tailCCDF(x float64, xmin int, alpha float64) float64 {
	return math.Pow(x/(float64(xmin)-0.5), -(alpha - 1))
}

// ksDistance computes the KS statistic between the empirical distribution of
// the runs of a tail of n observations and the fitted power law. The
// statistic is a max over runs, so the scan stops once it reaches bound: the
// result is then bound or more, but no longer the exact distance.
func ksDistance(tail []run, n, xmin int, alpha, bound float64) float64 {
	nf := float64(n)
	var d float64
	below := 0
	for _, r := range tail {
		empLo := float64(below) / nf
		below += r.n
		empHi := float64(below) / nf
		model := 1 - tailCCDF(float64(r.v)-0.5, xmin, alpha)
		d = math.Max(d, math.Max(math.Abs(model-empLo), math.Abs(model-empHi)))
		if d >= bound {
			break
		}
	}
	return d
}

// The xmin scan keeps a minimum tail: a power-law claim supported only by
// a vanishing fraction of the data is not a meaningful description of the
// distribution. A fit uses at least minTail observations and at least
// minTailFrac of the sample.
const (
	minTail     = 10
	minTailFrac = 0.05
)

// FitPowerLaw scans candidate xmin values (the distinct data values) and
// returns the fit minimising the KS distance.
func FitPowerLaw(values []int) (PowerLawFit, error) {
	var t tally
	for _, v := range values {
		t.add(v)
	}
	best, _ := fitRuns(t.runs(), len(values), math.Inf(1), false)
	if math.IsInf(best.KS, 1) {
		return PowerLawFit{}, ErrTooFewSamples
	}
	return best, nil
}

// fitRuns is the xmin scan over the ascending runs of a sample of n
// observations. It returns the candidate with the least KS distance below
// bound (KS bound and NTail 0 if there is none), or with first set the
// first candidate below bound. valid reports whether any candidate gave a
// fit at all, below bound or not.
func fitRuns(runs []run, n int, bound float64, first bool) (best PowerLawFit, valid bool) {
	best.KS = bound
	if n < minTail {
		return best, false
	}
	floor := max(minTail, int(minTailFrac*float64(n)))
	// Candidate xmins: the distinct values, ascending, for as long as the
	// tail from there on is large enough.
	tailN := n
	for k, r := range runs {
		nk := tailN
		tailN -= r.n
		if r.v < 1 {
			continue
		}
		if nk < floor {
			break
		}
		alpha := alphaMLE(runs[k:], nk, r.v)
		if math.IsInf(alpha, 1) || alpha <= 1 {
			continue
		}
		valid = true
		// A candidate at or above the best KS so far cannot be chosen, so
		// its scan may stop there.
		if ks := ksDistance(runs[k:], nk, r.v, alpha, best.KS); ks < best.KS {
			best = PowerLawFit{Alpha: alpha, Xmin: r.v, KS: ks, NTail: nk}
			if first {
				break
			}
		}
	}
	return best, valid
}

// samplePowerLaw draws one value from the fitted discrete power law using
// the continuous-approximation inverse CDF.
func samplePowerLaw(rng *rand.Rand, xmin int, alpha float64) int {
	u := rng.Float64()
	x := (float64(xmin) - 0.5) * math.Pow(1-u, -1/(alpha-1))
	v := int(math.Floor(x + 0.5))
	if v < xmin {
		v = xmin
	}
	return v
}

// PValue estimates the goodness-of-fit p-value by semi-parametric bootstrap
// (CSN Sec. 4): synthetic datasets draw tail values from the fitted law and
// body values from the empirical body; each synthetic set is refit and its
// KS distance compared with the observed one. Small p (< 0.1 in the paper)
// rejects the power-law hypothesis. iterations must be at least 1.
//
// A synthetic set exceeds the observed fit when its refit's KS distance is
// at least f.KS, so its xmin scan ends at the first candidate below f.KS. A
// set with no valid fit does not exceed.
func (f PowerLawFit) PValue(values []int, iterations int, rng *rand.Rand) float64 {
	var body []int
	for _, v := range values {
		if v < f.Xmin {
			body = append(body, v)
		}
	}
	n := len(values)
	pTail := float64(f.NTail) / float64(n)
	exceed := 0
	var t tally // refilled by every iteration
	for it := 0; it < iterations; it++ {
		for range n {
			if len(body) == 0 || rng.Float64() < pTail {
				t.add(samplePowerLaw(rng, f.Xmin, f.Alpha))
			} else {
				t.add(body[rng.Intn(len(body))])
			}
		}
		if sf, valid := fitRuns(t.runs(), n, f.KS, true); valid && sf.KS >= f.KS {
			exceed++
		}
	}
	return float64(exceed) / float64(iterations)
}

// RejectsPowerLaw runs the full CSN procedure and reports whether the
// power-law hypothesis is rejected at the paper's threshold (p < 0.1).
func RejectsPowerLaw(values []int, iterations int, rng *rand.Rand) (rejected bool, fit PowerLawFit, p float64, err error) {
	fit, err = FitPowerLaw(values)
	if err != nil {
		return false, fit, 0, err
	}
	p = fit.PValue(values, iterations, rng)
	return p < 0.1, fit, p, nil
}
