package main

import (
	"math"
	"sort"
	"time"
)

// percentileMS returns the nearest-rank p-th percentile of ds in
// milliseconds (0 for no samples). ds is sorted in place.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(math.Ceil(p/100*float64(len(ds)))) - 1
	idx = max(0, min(idx, len(ds)-1))
	return ms(ds[idx])
}

// slotPercentileMS returns the median over the non-empty slots of each
// slot's p-th percentile, in milliseconds (0 for no samples).
func slotPercentileMS(slots [][]time.Duration, p float64) float64 {
	var xs []float64
	for _, s := range slots {
		if len(s) > 0 {
			xs = append(xs, percentileMS(s, p))
		}
	}
	return median(xs)
}

// meanMS returns the mean of ds in milliseconds (0 for no samples).
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// median returns the median of xs (0 for no samples); xs is sorted in
// place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// fastest returns the smallest of xs (0 for no samples). Rounds of the
// same work differ only by interference, which only adds time, so the
// fastest round is the steadiest estimate of the work's cost.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
