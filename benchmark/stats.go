package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// quiet returns the smallest of xs, NaN for none: of repeated measurements of
// one thing, the one the box disturbed least. This box is a few cores of a
// shared host. Its neighbours only ever slow a measurement, in stretches
// from a fraction of a second to most of a run, so the median of the repeats
// moves with how busy the host was and the fastest repeat does not: the
// usual estimator for one-sided timing noise. What it leaves out is the
// program's own occasional stalls; those are in the traced run's p99. A
// single-shot p99 moved 40 % between identical runs, the median over slices
// 8–30 %, the quiet value 4–10 %.
func quiet(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the sample at or
// below it. It returns NaN on an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// micro converts a duration to microseconds, keeping the nanosecond digits.
func micro(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micro(d)
	}
	return out
}

// secondsOf runs fn n times and returns the seconds it reports, stopping at
// the first error.
func secondsOf(n int, fn func(i int) (time.Duration, error)) ([]float64, error) {
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := fn(i)
		if err != nil {
			return nil, err
		}
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}
