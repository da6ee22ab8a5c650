package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// beyond is how many of n samples lie above the q-quantile; the
// benchmark reports a tail percentile only with at least ten beyond it.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
