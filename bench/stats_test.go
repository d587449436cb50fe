package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -3, 10, 10}, 4.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same data, including its extrapolation on tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2.5, 7.25, 1.0, 9.5}, 1.375, 8.9375},
	} {
		q1, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestRelIQR(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 0},
		{[]float64{0, 0, 0}, 0},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		{[]float64{10, 10, 10, 10}, 0},
	} {
		if got := relIQR(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("relIQR(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the sort must not matter
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		p       float64
		want    float64
		beyond  int
		ok      bool
		comment string
	}{
		{100, 90, 90.1, 10, true, "exactly ten above p90"},
		{99, 90, 89.2, 10, true, "ten above after interpolation"},
		{90, 90, 81.1, 9, false, "nine above: not reportable"},
		{16, 90, 14.5, 2, false, "too few operations for a tail"},
		{20, 50, 10.5, 10, true, "p50 of twenty"},
		{19, 50, 10, 9, false, "p50 of nineteen"},
	} {
		v, beyond, ok := percentile(seq(tc.n), tc.p)
		if math.Abs(v-tc.want) > 1e-9 || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("%s: percentile(1..%d, %v) = %v, %d beyond, ok=%v; want %v, %d, %v",
				tc.comment, tc.n, tc.p, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
	if _, _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing reported as ok")
	}
}

func TestStatsDeterministic(t *testing.T) {
	xs := []float64{0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.8, 0.6, 0.5, 1.0, 0.05, 0.95}
	orig := append([]float64(nil), xs...)
	m1, m2 := median(xs), median(xs)
	a1, b1 := quartiles(xs)
	a2, b2 := quartiles(xs)
	if m1 != m2 || a1 != a2 || b1 != b2 {
		t.Fatal("repeated calls disagree")
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("stats reordered the caller's slice")
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2, 8}, 4},
		{[]float64{3.3, 3.3, 3.3}, 3.3},
		{[]float64{2, 0}, 0},
	} {
		if got := geomean(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
