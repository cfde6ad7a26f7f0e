package popularity

// The reference implementation of the power-law fit and its bootstrap: the
// slice-based xmin scan that sorts every synthetic sample and computes each
// candidate's KS distance in full. The runs-based scan in powerlaw.go must
// give bit-equal fits and p-values; the tests below check that.

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// refFit is FitPowerLaw on the reference scan.
func refFit(values []int) (PowerLawFit, error) {
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	return refFitSorted(sorted)
}

// refAlphaMLE computes the continuous-approximation MLE for the exponent given
// tail observations and xmin: alpha = 1 + n / Σ ln(x_i / (xmin - 0.5)). One
// logarithm is taken per run of equal values and added once per element, in
// element order, so the sum is bit-identical to the per-element formula
// while a sorted tail (few distinct values, many repeats) costs one Log per
// distinct value.
func refAlphaMLE(tail []int, xmin int) float64 {
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

// refKSDistance computes the KS statistic between the empirical distribution of
// the (sorted) tail and the fitted power law.
func refKSDistance(sortedTail []int, xmin int, alpha float64) float64 {
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

// refFitSorted is FitPowerLaw for values already in ascending order.
func refFitSorted(sorted []int) (PowerLawFit, error) {
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
		alpha := refAlphaMLE(tail, xmin)
		if math.IsInf(alpha, 1) || alpha <= 1 {
			continue
		}
		ks := refKSDistance(tail, xmin, alpha)
		if ks < best.KS {
			best = PowerLawFit{Alpha: alpha, Xmin: xmin, KS: ks, NTail: len(tail)}
		}
	}
	if math.IsInf(best.KS, 1) {
		return PowerLawFit{}, ErrTooFewSamples
	}
	return best, nil
}

// refPValue estimates the goodness-of-fit p-value by semi-parametric bootstrap
// (CSN Sec. 4): synthetic datasets draw tail values from the fitted law and
// body values from the empirical body; each synthetic set is refit and its
// KS distance compared with the observed one. Small p (< 0.1 in the paper)
// rejects the power-law hypothesis.
func refPValue(f PowerLawFit, values []int, iterations int, rng *rand.Rand) float64 {
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
		sf, err := refFitSorted(synth)
		if err != nil {
			continue
		}
		if sf.KS >= f.KS {
			exceed++
		}
	}
	return float64(exceed) / float64(iterations)
}

// forcedFit is the reference fit of values at a given xmin, whatever xmin
// the scan would choose, so that PValue can be checked at that xmin.
func forcedFit(values []int, xmin int) PowerLawFit {
	var tail []int
	for _, v := range values {
		if v >= xmin {
			tail = append(tail, v)
		}
	}
	sort.Ints(tail)
	alpha := refAlphaMLE(tail, xmin)
	return PowerLawFit{Alpha: alpha, Xmin: xmin, KS: refKSDistance(tail, xmin, alpha), NTail: len(tail)}
}

// sameFit fails unless got and want are bit-equal.
func sameFit(t *testing.T, what string, got, want PowerLawFit) {
	t.Helper()
	if math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) || got.Xmin != want.Xmin ||
		math.Float64bits(got.KS) != math.Float64bits(want.KS) || got.NTail != want.NTail {
		t.Fatalf("%s: fit %+v, reference %+v", what, got, want)
	}
}

// samePValue fails unless PValue and the reference give bit-equal p-values
// for fit from one seed and leave their generators in the same state: the
// URP test of a pass draws from where the RRP test stopped.
func samePValue(t *testing.T, what string, fit PowerLawFit, values []int, iters int, seed int64) {
	t.Helper()
	rng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	p, want := fit.PValue(values, iters, rng), refPValue(fit, values, iters, refRng)
	if math.Float64bits(p) != math.Float64bits(want) {
		t.Fatalf("%s: p = %v, reference %v", what, p, want)
	}
	if rng.Int63() != refRng.Int63() {
		t.Fatalf("%s: PValue drew a different number of values than the reference", what)
	}
}

// TestPValueMatchesReference: the runs-based fit and bootstrap give the
// reference's fit and p-value bit for bit, on the observed fit and on fits
// forced to xmin 1, 2, 6 and 20.
func TestPValueMatchesReference(t *testing.T) {
	type input struct {
		name   string
		values []int
	}
	rng := rand.New(rand.NewSource(8))
	var inputs []input
	for _, xmin := range []int{1, 2, 6, 20} {
		for _, alpha := range []float64{1.6, 2.5} {
			// A body below xmin, a power-law tail from xmin: the draws come
			// unsorted.
			vals := genPowerLaw(rng, 600, xmin, alpha)
			for i := range 200 {
				vals = append(vals, 1+i%xmin)
			}
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			inputs = append(inputs, input{"xmin " + strconv.Itoa(xmin) + " alpha " + strconv.FormatFloat(alpha, 'g', -1, 64), vals})
		}
	}
	// RRP-shaped: mostly ones, with counts at and past the dense cut.
	rrp := genPowerLaw(rng, 1500, 1, 2.1)
	rrp = append(rrp, denseCut-1, denseCut, denseCut, denseCut+7, 1<<20, 3)
	inputs = append(inputs, input{"rrp with counts past the dense cut", rrp})
	// Zeros and negatives sort below every candidate xmin.
	inputs = append(inputs, input{"zeros and negatives", append(genPowerLaw(rng, 300, 2, 2), 0, 0, -4, -1, 0, denseCut+1)})
	for _, n := range []int{minTail, minTail - 1} {
		inputs = append(inputs, input{"n " + strconv.Itoa(n), genPowerLaw(rng, n, 1, 2)})
	}

	for _, in := range inputs {
		fit, err := FitPowerLaw(in.values)
		want, wantErr := refFit(in.values)
		if err != wantErr {
			t.Fatalf("%s: error %v, reference %v", in.name, err, wantErr)
		}
		sameFit(t, in.name, fit, want)
		var fits []PowerLawFit
		if err == nil {
			fits = append(fits, fit)
		}
		for _, xmin := range []int{1, 2, 6, 20} {
			if f := forcedFit(in.values, xmin); f.NTail > 0 && f.Alpha > 1 && !math.IsInf(f.Alpha, 1) {
				fits = append(fits, f)
			}
		}
		for _, f := range fits {
			for _, iters := range []int{1, 50} {
				what := in.name + " at xmin " + strconv.Itoa(f.Xmin) + ", " + strconv.Itoa(iters) + " iterations"
				samePValue(t, what, f, in.values, iters, int64(iters)+int64(f.Xmin))
			}
		}
	}
}

// FuzzPValueMatchesReference: for any values, seed and budget, the fit and
// the p-value equal the reference's bit for bit.
func FuzzPValueMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0, 1, 0, 3, 1, 1, 0, 9, 2, 1, 0, 5, 0, 1, 0, 4, 3, 1, 0}, int64(1), uint8(3))
	f.Add([]byte{127, 11, 1, 0, 1, 0, 2, 4, 255, 0, 1, 0, 1, 0, 1, 0, 6, 1, 1, 0, 2, 0, 1, 0, 1, 0}, int64(7), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, iters uint8) {
		// Two bytes per value: a signed base and a shift, so that small
		// counts and values past the dense cut both occur.
		var values []int
		for i := 0; i+1 < len(data) && len(values) < 2000; i += 2 {
			values = append(values, int(int8(data[i]))<<(data[i+1]%12))
		}
		fit, err := FitPowerLaw(values)
		want, wantErr := refFit(values)
		if err != wantErr {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		sameFit(t, "fit", fit, want)
		if err == nil {
			samePValue(t, "p-value", fit, values, 1+int(iters%8), seed)
		}
	})
}

// rrpShaped is an RRP-like sample: most CIDs requested once, the rest with
// Zipf-distributed counts.
func rrpShaped(n int) []int {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.3, 1, 5000)
	out := make([]int, n)
	for i := range out {
		out[i] = 1
		if rng.Float64() >= 0.7 {
			out[i] = 2 + int(zipf.Uint64())
		}
	}
	return out
}

// BenchmarkPValue is the bootstrap of an RRP-shaped sample of 5,000 CIDs at
// one iteration and at the reports' default of 50: allocations per call
// must not grow with the iteration count.
func BenchmarkPValue(b *testing.B) {
	values := rrpShaped(5000)
	fit, err := FitPowerLaw(values)
	if err != nil {
		b.Fatal(err)
	}
	for _, iters := range []int{1, 50} {
		b.Run("iters="+strconv.Itoa(iters), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			for b.Loop() {
				rng.Seed(1)
				fit.PValue(values, iters, rng)
			}
		})
	}
}
