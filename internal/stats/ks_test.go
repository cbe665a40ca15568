package stats

import (
	"math"
	"sort"
	"testing"
)

// ksFullScan is the unpruned statistic: both sides of the empirical CDF's
// jump at every sample. It is the reference KSDistanceSorted must match.
func ksFullScan(sorted []float64, dist CDFer) float64 {
	n := len(sorted)
	var sup float64
	for i, x := range sorted {
		f := dist.CDF(x)
		lo := math.Abs(f - float64(i)/float64(n))
		hi := math.Abs(f - float64(i+1)/float64(n))
		if lo > sup {
			sup = lo
		}
		if hi > sup {
			sup = hi
		}
	}
	return sup
}

// countingCDF counts the CDF evaluations a scan makes.
type countingCDF struct {
	dist  CDFer
	calls *int
}

func (c countingCDF) CDF(x float64) float64 {
	*c.calls++
	return c.dist.CDF(x)
}

// TestKSDistanceSortedMatchesFullScan requires the pruned scan to return
// exactly the full scan's bits on Pareto samples against their own fit and
// against misfits, on Exponential and Empirical distributions, on tied
// samples and on samples below the Pareto scale, for sizes around the
// grid stride, the estimator's window and the grid segment, and on
// samples whose supremum is set by one chosen point alone.
func TestKSDistanceSortedMatchesFullScan(t *testing.T) {
	rng := NewRNG(23)
	sizes := []int{1, 2, 3, 15, 16, 17, 255, 256, 257, 1024, 1025, 1026, 2500}
	for _, n := range sizes {
		for trial := 0; trial < 12; trial++ {
			samples := make([]float64, n)
			for i := range samples {
				switch trial % 4 {
				case 0, 1:
					samples[i] = Pareto{Alpha: 1.2 + 0.2*float64(trial), Xm: 2}.Sample(rng)
				case 2:
					samples[i] = float64(1 + rng.Intn(6)) // heavy ties, some below Xm = 2
				default:
					samples[i] = Exponential{Rate: 0.5}.Sample(rng)
				}
			}
			sort.Float64s(samples)
			dists := []CDFer{
				Pareto{Alpha: 1.6, Xm: 2}, Pareto{Alpha: 0.4, Xm: 0.1}, Pareto{Alpha: 6, Xm: 3},
				Exponential{Rate: 0.5}, Exponential{Rate: 40},
			}
			if fit, err := FitPareto(samples); err == nil {
				dists = append(dists, fit)
			}
			if fit, err := FitExponential(samples); err == nil {
				dists = append(dists, fit)
			}
			half := samples[:max(1, n/2)]
			if emp, err := NewEmpirical(half); err == nil {
				dists = append(dists, emp)
			}
			for _, dist := range dists {
				checkKSBits(t, samples, dist)
			}
		}
		// A sample on the uniform grid x_i = (i+½)/n contributes ½/n at
		// every point. Nudging one sample up makes it the only one that
		// sets the supremum, so a scan that skips it is caught.
		for _, p := range []int{0, 1, 15, 16, 17, 1023, 1024, 1025, n - 2, n - 1} {
			if p < 0 || p >= n {
				continue
			}
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = (float64(i) + 0.5) / float64(n)
			}
			samples[p] += 0.4 / float64(n)
			checkKSBits(t, samples, Uniform{Lo: 0, Hi: 1})
		}
	}
}

func checkKSBits(t *testing.T, sorted []float64, dist CDFer) {
	t.Helper()
	want, got := ksFullScan(sorted, dist), KSDistanceSorted(sorted, dist)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n=%d, %v: KSDistanceSorted = %v (%#x), full scan = %v (%#x)",
			len(sorted), dist, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// On the estimator's refit shape — a 256-sample Pareto window against its
// own fit — most CDF evaluations are pruned.
func TestKSDistanceSortedPrunes(t *testing.T) {
	rng := NewRNG(3)
	samples := make([]float64, 256)
	for i := range samples {
		samples[i] = Pareto{Alpha: 1.5, Xm: 10}.Sample(rng)
	}
	sort.Float64s(samples)
	fit, err := FitPareto(samples)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	KSDistanceSorted(samples, countingCDF{dist: fit, calls: &calls})
	if calls > len(samples)/2 {
		t.Fatalf("pruned scan evaluated the CDF %d times for %d samples, want at most half", calls, len(samples))
	}
}

// ksSink keeps the benchmarked call from being optimized away.
var ksSink float64

func BenchmarkKSDistanceSorted(b *testing.B) {
	rng := NewRNG(3)
	samples := make([]float64, 256)
	for i := range samples {
		samples[i] = Pareto{Alpha: 1.5, Xm: 10}.Sample(rng)
	}
	sort.Float64s(samples)
	fit, err := FitPareto(samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ksSink = KSDistanceSorted(samples, fit)
	}
}
