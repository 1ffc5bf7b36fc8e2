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

// quantile is the linearly interpolated q-quantile (0 <= q <= 1) of an
// ascending sample; it returns NaN for an empty one.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the first and third quartile of xs by the "exclusive"
// method Python's statistics.quantiles(xs, n=4) uses, so a spread computed
// here matches the one the benchmark contract is checked with. It needs at
// least two samples and returns NaNs otherwise.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPercentile picks the highest whole percentile of an n-sample set that
// still has at least ten samples beyond it (p99 needs 1000 samples, p90
// needs 100) and returns it with its nearest-rank value. With fewer than
// twenty samples no percentile above the median qualifies and ok is false.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	pct = 100 * (n - 10) / n
	if pct > 99 {
		pct = 99
	}
	if pct <= 50 {
		return 0, 0, false
	}
	return pct, nearestRank(sorted(xs), pct), true
}

// nearestRank returns the pct-th percentile of an ascending sample by the
// nearest-rank rule (the smallest value with at least pct% of the sample at
// or below it).
func nearestRank(s []float64, pct int) float64 {
	idx := (pct*len(s)+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// distinct counts the different values in xs.
func distinct(xs []float64) int {
	seen := make(map[float64]struct{}, len(xs))
	for _, x := range xs {
		seen[x] = struct{}{}
	}
	return len(seen)
}

// rangePct is (max-min)/median of xs in percent (0 for an empty sample).
func rangePct(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return 100 * (s[len(s)-1] - s[0]) / quantile(s, 0.5)
}

// interval is a half-open span of time [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the span, overlapping children are merged so
// concurrent ones are not subtracted twice.
func selfTime(span interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, curEnd int64
	curEnd = span.start
	for _, c := range clipped {
		if c.start > curEnd {
			covered += c.end - c.start
			curEnd = c.end
		} else if c.end > curEnd {
			covered += c.end - curEnd
			curEnd = c.end
		}
	}
	return span.end - span.start - covered
}
