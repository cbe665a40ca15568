package stats

import (
	"math"
	"sort"
	"testing"
)

// TestFitExponentialRecovery draws from a known exponential and checks the
// MLE recovers the rate within sampling error.
func TestFitExponentialRecovery(t *testing.T) {
	const rate = 2.5
	rng := NewRNG(7)
	dist := Exponential{Rate: rate}
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = dist.Sample(rng)
	}
	fit, err := FitExponential(samples)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if rel := math.Abs(fit.Rate-rate) / rate; rel > 0.05 {
		t.Errorf("fitted rate %.4f, want %.4f within 5%% (rel err %.3f)", fit.Rate, rate, rel)
	}
}

// TestFitParetoRecovery draws from a known Pareto and checks the MLE
// recovers both the shape and the scale.
func TestFitParetoRecovery(t *testing.T) {
	const alpha, xm = 1.6, 3.0
	rng := NewRNG(11)
	dist := Pareto{Alpha: alpha, Xm: xm}
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = dist.Sample(rng)
	}
	fit, err := FitPareto(samples)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if rel := math.Abs(fit.Alpha-alpha) / alpha; rel > 0.1 {
		t.Errorf("fitted alpha %.4f, want %.4f within 10%% (rel err %.3f)", fit.Alpha, alpha, rel)
	}
	// The MLE scale is the sample minimum, which converges to xm from above.
	if fit.Xm < xm || fit.Xm > xm*1.01 {
		t.Errorf("fitted xm %.4f, want in [%.4f, %.4f]", fit.Xm, xm, xm*1.01)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitExponential(nil); err == nil {
		t.Error("exponential fit of empty sample should fail")
	}
	if _, err := FitExponential([]float64{1, -2}); err == nil {
		t.Error("exponential fit with a non-positive sample should fail")
	}
	if _, err := FitPareto([]float64{4}); err == nil {
		t.Error("pareto fit of a single point should fail")
	}
	if _, err := FitPareto([]float64{4, 4, 4}); err == nil {
		t.Error("pareto fit of a degenerate sample should fail")
	}
	if _, err := FitPareto([]float64{4, 0}); err == nil {
		t.Error("pareto fit with a non-positive sample should fail")
	}
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("empirical distribution of empty sample should fail")
	}
	if _, err := NewEmpirical([]float64{1, math.NaN()}); err == nil {
		t.Error("empirical distribution with NaN should fail")
	}
}

// TestEmpiricalRoundTrip checks the empirical distribution reproduces its
// sample: quantiles match Percentile, the CDF inverts them, sampling stays
// inside the sample range, and the mean is the sample mean.
func TestEmpiricalRoundTrip(t *testing.T) {
	sample := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	e, err := NewEmpirical(sample)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if e.N() != len(sample) {
		t.Errorf("N = %d, want %d", e.N(), len(sample))
	}
	if e.Mean() != 5.5 {
		t.Errorf("mean = %v, want 5.5", e.Mean())
	}
	sorted := OrderStatistics(sample)
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		if got, want := e.Quantile(p), Percentile(sorted, p); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", p, got, want)
		}
	}
	// CDF round trip at the sample points: CDF(x_(k)) = k/n.
	for k, x := range sorted {
		if got, want := e.CDF(x), float64(k+1)/float64(len(sorted)); got != want {
			t.Errorf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
	rng := NewRNG(3)
	var sum float64
	const draws = 20000
	for i := 0; i < draws; i++ {
		v := e.Sample(rng)
		if v < 1 || v > 10 {
			t.Fatalf("sample %v outside [1, 10]", v)
		}
		sum += v
	}
	if got := sum / draws; math.Abs(got-5.5) > 0.1 {
		t.Errorf("sample mean %.3f, want ~5.5", got)
	}
}

// TestKSDistance checks the statistic is near zero for the generating
// distribution and large for a badly wrong one.
func TestKSDistance(t *testing.T) {
	rng := NewRNG(5)
	dist := Exponential{Rate: 1}
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = dist.Sample(rng)
	}
	if d := KSDistance(samples, dist); d > 0.05 {
		t.Errorf("KS vs generating distribution = %.4f, want < 0.05", d)
	}
	if d := KSDistance(samples, Exponential{Rate: 10}); d < 0.3 {
		t.Errorf("KS vs mismatched distribution = %.4f, want > 0.3", d)
	}
	if d := KSDistance(nil, dist); d != 0 {
		t.Errorf("KS of empty sample = %v, want 0", d)
	}
}

// TestKSDistanceSortedBitEqual checks that KSDistanceSorted over a sorted
// copy returns exactly KSDistance's bits, on samples with and without
// ties, against several fitted and mismatched distributions.
func TestKSDistanceSortedBitEqual(t *testing.T) {
	rng := NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = Pareto{Alpha: 1.6, Xm: 1}.Sample(rng)
			if trial%2 == 1 {
				samples[i] = float64(1 + rng.Intn(8)) // heavy ties
			}
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		for _, dist := range []CDFer{
			Pareto{Alpha: 1.6, Xm: 1}, Pareto{Alpha: 3, Xm: 0.5}, Exponential{Rate: 0.7},
		} {
			want, got := KSDistance(samples, dist), KSDistanceSorted(sorted, dist)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %v: KSDistanceSorted = %v, KSDistance = %v", trial, dist, got, want)
			}
		}
	}
	if d := KSDistanceSorted(nil, Exponential{Rate: 1}); d != 0 {
		t.Errorf("KSDistanceSorted of empty sample = %v, want 0", d)
	}
}
