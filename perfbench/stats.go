package main

import (
	"math"
	"sort"
	"time"

	"ssr/internal/stats"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified. It
// returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durMs converts durations to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// logHist is an allocation-free latency histogram with buckets growing by
// 2% from histMin, so quantiles carry at most 1% bucketing error. The
// offline workloads time every engine event with it.
type logHist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histMin     = 50 * time.Nanosecond
	histRatio   = 1.02
	histBuckets = 900 // histMin * 1.02^900 is about 30 s
)

var histLogRatio = math.Log(histRatio)

func (h *logHist) add(d time.Duration) {
	i := 0
	if d > histMin {
		i = int(math.Log(float64(d)/float64(histMin))/histLogRatio) + 1
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-th sample, placed inside its bucket by its rank
// among the bucket's samples on a log scale.
func (h *logHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			if i == 0 {
				return histMin
			}
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return time.Duration(float64(histMin) * math.Pow(histRatio, float64(i-1)+frac))
		}
		seen += c
	}
	return 0
}
