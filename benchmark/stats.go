package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (mean of the two middle values for
// an even count); v is not modified. It is 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// percentileNS is the exact nearest-rank percentile of sorted nanosecond
// samples: the smallest sample with at least p of the samples at or below
// it. beyond is how many samples lie strictly after that rank, the count
// the README's "samples beyond the percentile" rule is about.
func percentileNS(sorted []int64, p float64) (value int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the A/A report and the acceptance rule
// use: the spread of a cell is (q3-q1)/median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
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
	return at(1), at(2), at(3)
}

// repCount is the repetition rule: enough repetitions of a run that took
// first seconds to fill budget seconds of timed work, clamped to [lo, hi].
func repCount(budget, first float64, lo, hi int) int {
	r := hi
	if first > 0 {
		r = int(math.Ceil(budget / first))
	}
	if r < lo {
		r = lo
	}
	if r > hi {
		r = hi
	}
	return r
}

// interpolateCrossing places the point where a loss curve, taken as linear
// between two evaluations (x0, loss0) and (x1, loss1) with loss0 > target >=
// loss1, reaches target. x is an epoch count or a cumulative time.
func interpolateCrossing(x0, x1, loss0, loss1, target float64) float64 {
	if loss0 <= loss1 {
		return x1
	}
	f := (loss0 - target) / (loss0 - loss1)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return x0 + f*(x1-x0)
}

// allFinite reports whether every component of w is a finite number.
func allFinite(w []float64) bool {
	for _, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
