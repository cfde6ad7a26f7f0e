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

// alphaMLE computes the continuous-approximation MLE for the exponent given
// tail observations and xmin: alpha = 1 + n / Σ ln(x_i / (xmin - 0.5)). One
// logarithm is taken per run of equal values and added once per element, in
// element order, so the sum is bit-identical to the per-element formula
// while a sorted tail (few distinct values, many repeats) costs one Log per
// distinct value.
func alphaMLE(tail []int, xmin int) float64 {
	var s float64
	d := float64(xmin) - 0.5
	for i := 0; i < len(tail); {
		x := tail[i]
		l := math.Log(float64(x) / d)
		for ; i < len(tail) && tail[i] == x; i++ {
			s += l
		}
	}
	if s == 0 {
		return math.Inf(1)
	}
	return 1 + float64(len(tail))/s
}

// tailCCDF is the fitted complementary CDF P(X >= x) under the continuous
// approximation to the discrete power law.
func tailCCDF(x float64, xmin int, alpha float64) float64 {
	return math.Pow(x/(float64(xmin)-0.5), -(alpha - 1))
}

// ksDistance computes the KS statistic between the empirical distribution of
// the (sorted) tail and the fitted power law.
func ksDistance(sortedTail []int, xmin int, alpha float64) float64 {
	n := float64(len(sortedTail))
	var d float64
	for i := 0; i < len(sortedTail); {
		j := i
		for j < len(sortedTail) && sortedTail[j] == sortedTail[i] {
			j++
		}
		empLo := float64(i) / n
		empHi := float64(j) / n
		model := 1 - tailCCDF(float64(sortedTail[i])-0.5, xmin, alpha)
		d = math.Max(d, math.Max(math.Abs(model-empLo), math.Abs(model-empHi)))
		i = j
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
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	return fitSorted(sorted)
}

// fitSorted is FitPowerLaw for values already in ascending order.
func fitSorted(sorted []int) (PowerLawFit, error) {
	if len(sorted) < minTail {
		return PowerLawFit{}, ErrTooFewSamples
	}
	floor := max(minTail, int(minTailFrac*float64(len(sorted))))
	best := PowerLawFit{KS: math.Inf(1)}
	// Candidate xmins: the distinct values, ascending, for as long as the
	// tail from there on is large enough.
	for lo := 0; lo < len(sorted); {
		xmin := sorted[lo]
		tail := sorted[lo:]
		for lo < len(sorted) && sorted[lo] == xmin {
			lo++
		}
		if xmin < 1 {
			continue
		}
		if len(tail) < floor {
			break
		}
		alpha := alphaMLE(tail, xmin)
		if math.IsInf(alpha, 1) || alpha <= 1 {
			continue
		}
		ks := ksDistance(tail, xmin, alpha)
		if ks < best.KS {
			best = PowerLawFit{Alpha: alpha, Xmin: xmin, KS: ks, NTail: len(tail)}
		}
	}
	if math.IsInf(best.KS, 1) {
		return PowerLawFit{}, ErrTooFewSamples
	}
	return best, nil
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
// rejects the power-law hypothesis.
func (f PowerLawFit) PValue(values []int, iterations int, rng *rand.Rand) float64 {
	if iterations <= 0 {
		iterations = 100
	}
	var body []int
	for _, v := range values {
		if v < f.Xmin {
			body = append(body, v)
		}
	}
	n := len(values)
	pTail := float64(f.NTail) / float64(n)
	exceed := 0
	synth := make([]int, n) // refilled and sorted in place by every iteration
	for it := 0; it < iterations; it++ {
		for i := range synth {
			if len(body) == 0 || rng.Float64() < pTail {
				synth[i] = samplePowerLaw(rng, f.Xmin, f.Alpha)
			} else {
				synth[i] = body[rng.Intn(len(body))]
			}
		}
		sort.Ints(synth)
		sf, err := fitSorted(synth)
		if err != nil {
			continue
		}
		if sf.KS >= f.KS {
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
