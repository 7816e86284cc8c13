package main

import (
	"math"
	"sort"
)

// pct is the p-th percentile of xs (linear interpolation between order
// statistics); 0 for no samples. xs is not modified.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func median(xs []float64) float64 { return pct(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
