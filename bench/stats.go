package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail value resting on fewer samples is noise, not a tail.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads printed here match what an external checker computes from the
// same values. A single value is its own quartiles; an empty slice gives
// NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	n := len(s)
	q := func(i int) float64 {
		// Clamp the rank into the data as Python does; for tiny samples
		// delta then leaves [0, 4] and the line through the two end values
		// extrapolates, exactly as statistics.quantiles does.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// relIQR is the distance between the quartiles as a share of the median:
// the spread the benchmark's regression bounds are set against. It is 0 for
// fewer than two values or a zero median.
func relIQR(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// percentile returns the p-th percentile of xs (0 < p < 100, linear
// interpolation between closest ranks) and how many samples lie strictly
// above it. ok is false unless at least minBeyond samples do: only then is
// the percentile reported.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	v = s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond, beyond >= minBeyond
}

// geomean is the geometric mean of positive xs; 0 when xs is empty or
// holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
