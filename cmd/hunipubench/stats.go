package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs, linearly
// interpolated between the closest ranks. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so a spread computed here matches one computed from the printed
// values in Python. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// relIQR is the interquartile range of xs as a share of its median
// (0 when the median is 0).
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// tailPercentiles are the percentiles a timing's tail is reported at,
// highest last.
var tailPercentiles = []float64{50, 90, 95, 99}

// tailPercentile picks the highest of p50/p90/p95/p99 that has at least
// ten samples beyond it, so a tail is never read off a handful of
// points. ok is false when not even p50 is supported (fewer than 20
// samples); p is then 50.
func tailPercentile(n int) (p float64, ok bool) {
	p = 50
	for _, c := range tailPercentiles {
		if math.Floor(float64(n)*(1-c/100)+1e-9) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}
