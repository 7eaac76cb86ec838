package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks, the rule numpy and Python's statistics module use
// by default. It returns 0 for an empty sample and leaves xs unmodified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailQuantiles are the percentiles a timing may be reported at, lowest
// first.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// tailQuantile returns the highest of tailQuantiles that has at least ten of
// n samples beyond it, so a reported tail is never set by a handful of
// outliers: p90 needs 100 samples, p99 1000. It returns 0 when even the
// median has fewer than ten samples above it (n < 20).
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// interval is a half-open time range [lo, hi) in microseconds.
type interval struct{ lo, hi int64 }

// unionLength returns the total length covered by ivs after clipping each to
// [lo, hi). Overlapping intervals count once: children of a span may run in
// parallel, and their sum would then exceed the time they cover.
func unionLength(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range clipped {
		if open && iv.lo <= curHi {
			curHi = max(curHi, iv.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv.lo, iv.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0, so absent work reads as 0 rather than
// NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
