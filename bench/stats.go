package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a tail percentile
// for it to be reported: with fewer, p90 of a short run is the maximum
// under another name (the p95 = p99 = max of the BENCH_serving.json
// this benchmark replaces).
const tailMinBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted (the
// sample at 1-based rank ceil(p/100·n)). The median is always
// reportable; a tail percentile is refused unless at least
// tailMinBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < tailMinBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, tailMinBeyond)
	}
	return sorted[rank-1], nil
}

// median is percentile(…, 50) for callers that hold at least one sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 50)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// timeN runs f n times and returns each call's duration.
func timeN(n int, f func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = time.Since(t0)
	}
	return out
}

// medianOf is the median of durations in the unit conv renders.
func medianOf(ds []time.Duration, conv func(time.Duration) float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = conv(d)
	}
	return median(xs)
}
