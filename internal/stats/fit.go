package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file holds the estimation side of the package: maximum-likelihood
// fits for the distributions the trace pipeline models (exponential
// inter-arrival gaps, Pareto task durations) and an empirical-quantile
// distribution that replays a sample when no parametric family fits.

// FitExponential returns the maximum-likelihood exponential fit of a
// sample: rate = 1/mean. Samples must be positive.
func FitExponential(samples []float64) (Exponential, error) {
	if len(samples) == 0 {
		return Exponential{}, fmt.Errorf("stats: exponential fit needs at least one sample")
	}
	var sum float64
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Exponential{}, fmt.Errorf("stats: exponential fit sample %v must be a positive finite number", x)
		}
		sum += x
	}
	mean := sum / float64(len(samples))
	return Exponential{Rate: 1 / mean}, nil
}

// FitPareto returns the maximum-likelihood Pareto (type I) fit of a sample:
// xm is the sample minimum and alpha = n / sum(ln(x_i/xm)). A degenerate
// sample (fewer than two points, or all points equal, which drives the MLE
// shape to infinity) is an error — callers should fall back to an empirical
// fit.
func FitPareto(samples []float64) (Pareto, error) {
	if len(samples) < 2 {
		return Pareto{}, fmt.Errorf("stats: pareto fit needs at least two samples, got %d", len(samples))
	}
	xm := math.Inf(1)
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Pareto{}, fmt.Errorf("stats: pareto fit sample %v must be a positive finite number", x)
		}
		if x < xm {
			xm = x
		}
	}
	var logSum float64
	for _, x := range samples {
		logSum += math.Log(x / xm)
	}
	if logSum <= 0 {
		return Pareto{}, fmt.Errorf("stats: pareto fit is degenerate (all %d samples equal %v)", len(samples), xm)
	}
	return Pareto{Alpha: float64(len(samples)) / logSum, Xm: xm}, nil
}

// Empirical is the empirical-quantile distribution of a sample: sampling
// draws a uniform probability and inverts the empirical CDF with linear
// interpolation between order statistics. It is the non-parametric fallback
// when neither the exponential nor the Pareto family fits a trace.
type Empirical struct {
	sorted []float64
	mean   float64
}

// NewEmpirical builds the empirical distribution of a sample of
// non-negative finite values. The sample is copied and sorted.
func NewEmpirical(samples []float64) (Empirical, error) {
	if len(samples) == 0 {
		return Empirical{}, fmt.Errorf("stats: empirical distribution needs at least one sample")
	}
	sorted := make([]float64, len(samples))
	var sum float64
	for i, x := range samples {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Empirical{}, fmt.Errorf("stats: empirical sample %v must be a non-negative finite number", x)
		}
		sorted[i] = x
		sum += x
	}
	sort.Float64s(sorted)
	return Empirical{sorted: sorted, mean: sum / float64(len(sorted))}, nil
}

// N returns the sample size.
func (e Empirical) N() int { return len(e.sorted) }

// Sample draws via inverse-transform sampling of the empirical CDF.
func (e Empirical) Sample(r *rand.Rand) float64 { return e.Quantile(r.Float64()) }

// Quantile returns the value at probability p by linear interpolation
// between closest order statistics (the Percentile convention).
func (e Empirical) Quantile(p float64) float64 { return Percentile(e.sorted, p) }

// CDF returns the empirical fraction of the sample at or below x.
func (e Empirical) CDF(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x; that count is |{x_i <= x}|.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Mean returns the sample mean.
func (e Empirical) Mean() float64 { return e.mean }

func (e Empirical) String() string {
	return fmt.Sprintf("Empirical(n=%d, mean=%g)", len(e.sorted), e.mean)
}

// KSDistance returns the Kolmogorov–Smirnov statistic between a sample and
// a distribution with an analytic CDF: the supremum over the sample points
// of |F_n(x) - F(x)|. The trace fitter uses it to pick between candidate
// parametric fits and to decide when to fall back to Empirical. The input
// need not be sorted; it is copied and sorted, then handed to
// KSDistanceSorted.
func KSDistance(samples []float64, dist CDFer) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return KSDistanceSorted(sorted, dist)
}

// KSDistanceSorted is KSDistance over a sample the caller already holds in
// ascending order; it neither copies nor allocates. Callers that keep a
// sorted window (the online estimator) skip the per-call sort this way.
// The type parameter lets a concrete distribution pass without boxing it
// in an interface, which would cost an allocation per call.
//
// The CDF is evaluated only where a sample could set the supremum. Sample
// i contributes the two sides of the empirical CDF's jump there,
// max(|F(x_i) − i/n|, |F(x_i) − (i+1)/n|). Because F is non-decreasing and
// the sample sorted, every sample strictly inside a block [a, b] whose end
// values are known contributes at most
// max(b/n − F(x_a), F(x_b) − (a+1)/n). The scan evaluates a stride-16 grid
// of block ends first, then bisects only the blocks whose bound, plus
// ksMargin, reaches the running supremum. The result is the largest of a
// subset of the same exactly computed terms, and no term left out can
// exceed it, so it is bit-for-bit the full scan's.
func KSDistanceSorted[D CDFer](sorted []float64, dist D) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	s := ksScan[D]{sorted: sorted, dist: dist, n: float64(n)}
	last := n - 1
	// grid holds one segment's block-end CDF values; a segment spans
	// ksSegment blocks, so samples of up to ksSegment*ksStride+1 points
	// are one segment and larger ones are scanned segment by segment.
	var grid [ksSegment + 1]float64
	grid[0] = s.eval(0)
	for a := 0; a < last; {
		k, b := 0, a
		for k < ksSegment && b < last {
			b = min(b+ksStride, last)
			k++
			grid[k] = s.eval(b)
		}
		for i := 0; i < k; i++ {
			lo := a + i*ksStride
			s.refine(lo, min(lo+ksStride, last), grid[i], grid[i+1])
		}
		a, grid[0] = b, grid[k]
	}
	return s.sup
}

const (
	// ksStride is the spacing of the first-pass grid of KSDistanceSorted.
	ksStride = 16
	// ksSegment is the number of grid blocks held at once.
	ksSegment = 64
	// ksMargin absorbs rounding in the pruning bound and ulp-level
	// non-monotonicity of library CDFs (math.Pow, math.Exp), both orders
	// of magnitude below it.
	ksMargin = 1e-12
)

// ksScan is the state of one KSDistanceSorted call.
type ksScan[D CDFer] struct {
	sorted []float64
	dist   D
	n      float64
	sup    float64
}

// eval computes F at sample i, folds the sample's two terms into the
// supremum and returns F.
func (s *ksScan[D]) eval(i int) float64 {
	f := s.dist.CDF(s.sorted[i])
	// The empirical CDF jumps from i/n to (i+1)/n at x; the supremum
	// of the difference is attained at one side of the jump.
	lo := math.Abs(f - float64(i)/s.n)
	hi := math.Abs(f - float64(i+1)/s.n)
	if lo > s.sup {
		s.sup = lo
	}
	if hi > s.sup {
		s.sup = hi
	}
	return f
}

// refine evaluates the samples strictly between a and b, whose CDF values
// are fa and fb, wherever the block bound does not rule them out. A NaN
// bound never rules a block out.
func (s *ksScan[D]) refine(a, b int, fa, fb float64) {
	for b-a > 1 {
		bound := max(float64(b)/s.n-fa, fb-float64(a+1)/s.n)
		if bound+ksMargin < s.sup {
			return
		}
		m := (a + b) / 2
		fm := s.eval(m)
		s.refine(a, m, fa, fm)
		a, fa = m, fm
	}
}

// Compile-time interface checks for the empirical distribution.
var (
	_ Distribution = Empirical{}
	_ Quantiler    = Empirical{}
	_ CDFer        = Empirical{}
)
