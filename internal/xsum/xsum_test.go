package xsum

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// naive is the plain left-to-right fold Sum replaces.
func naive(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func sumOf(vs []float64) *Sum {
	var s Sum
	for _, v := range vs {
		s.Add(v)
	}
	return &s
}

// randomValues mixes magnitudes aggressively enough that naive folds of
// different orderings disagree, which is exactly the disagreement Sum must
// not show.
func randomValues(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		v := rng.NormFloat64() * math.Ldexp(1, rng.Intn(80)-40)
		if rng.Intn(8) == 0 {
			v = -v
		}
		vs[i] = v
	}
	return vs
}

// TestOrderIndependence is the core contract: any permutation and any
// chunk/merge tree produces bit-identical values.
func TestOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		vs := randomValues(rng, 1+rng.Intn(500))
		want := sumOf(vs).Value()

		shuffled := append([]float64(nil), vs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := sumOf(shuffled).Value(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: shuffled fold %x differs from serial %x", trial, got, want)
		}

		// Random partition into sub-sums merged in random order.
		parts := make([]*Sum, 1+rng.Intn(5))
		for i := range parts {
			parts[i] = &Sum{}
		}
		for _, v := range shuffled {
			parts[rng.Intn(len(parts))].Add(v)
		}
		merged := parts[0]
		for _, p := range parts[1:] {
			merged.Merge(p)
		}
		if got := merged.Value(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: merged partitions %x differ from serial %x", trial, got, want)
		}
	}
}

// TestExactness pins Value against exact references where the true sum is
// representable.
func TestExactness(t *testing.T) {
	cases := []struct {
		vs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, -0.0}, 0},
		{[]float64{1, 2, 3}, 6},
		{[]float64{600, 400}, 1000},
		{[]float64{0.5, 0.25, 0.125}, 0.875},
		{[]float64{1e16, 1, -1e16}, 1},      // naive fold loses the 1
		{[]float64{1, 1e100, 1, -1e100}, 2}, // classic cancellation
		{[]float64{math.MaxFloat64, -math.MaxFloat64}, 0},
		{[]float64{5e-324, 5e-324}, 1e-323}, // subnormals
		{[]float64{2.5, 2.5, 2.5, 2.5}, 10},
	}
	for _, c := range cases {
		if got := sumOf(c.vs).Value(); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("sum(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

// TestMatchesNaiveWhenSafe: for same-magnitude positive values the naive
// fold is exact too, so the two must agree exactly — this is what keeps the
// pipeline's existing hand-computed test expectations valid.
func TestMatchesNaiveWhenSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		vs := make([]float64, 1+rng.Intn(100))
		for i := range vs {
			vs[i] = float64(rng.Intn(1 << 20)) // exactly representable, exact partial sums
		}
		if got, want := sumOf(vs).Value(), naive(vs); got != want {
			t.Fatalf("trial %d: %v != naive %v", trial, got, want)
		}
	}
}

// TestAccuracy: against arbitrary values the exact sum must be within one
// rounding of the true total; compare to a compensated reference.
func TestAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		vs := randomValues(rng, 1000)
		// Kahan-Babuska compensated sum as the high-accuracy reference.
		var ref, comp float64
		for _, v := range vs {
			tv := ref + v
			if math.Abs(ref) >= math.Abs(v) {
				comp += (ref - tv) + v
			} else {
				comp += (v - tv) + ref
			}
			ref = tv
		}
		ref += comp
		got := sumOf(vs).Value()
		if diff := math.Abs(got - ref); diff > 4*math.Abs(ref)*0x1p-52 && diff > 0x1p-1000 {
			t.Fatalf("trial %d: xsum %g vs compensated %g (diff %g)", trial, got, ref, diff)
		}
	}
}

// TestValueWithinOneULP pins what Value promises: the same bits for any
// order and any merge tree of the same values, and a result within one ulp
// of the exact sum — the float64 nearest it or a neighbour of that one.
// Value does not always round correctly: a few percent of these sums land
// one ulp off.
func TestValueWithinOneULP(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	off := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		vs := randomValues(rng, 200)
		for i := range vs {
			switch trial % 3 {
			case 0:
				vs[i] = rng.Float64() * 4000 // latencies
			case 1:
				vs[i] = float64(rng.Intn(40000)) / 10 // latencies on a 0.1-cycle grid
			}
		}
		got := sumOf(vs).Value()

		parts := make([]*Sum, 1+rng.Intn(6))
		for i := range parts {
			parts[i] = &Sum{}
		}
		for _, i := range rng.Perm(len(vs)) {
			parts[rng.Intn(len(parts))].Add(vs[i])
		}
		for len(parts) > 1 {
			i := rng.Intn(len(parts) - 1)
			parts[i].Merge(parts[i+1])
			parts = append(parts[:i+1], parts[i+2:]...)
		}
		if merged := parts[0].Value(); math.Float64bits(merged) != math.Float64bits(got) {
			t.Fatalf("trial %d: shuffled merge tree gives %x, serial %x", trial, merged, got)
		}

		exact := new(big.Float).SetPrec(4096)
		for _, v := range vs {
			exact.Add(exact, new(big.Float).SetFloat64(v))
		}
		nearest, _ := exact.Float64()
		switch got {
		case nearest:
		case math.Nextafter(nearest, math.Inf(1)), math.Nextafter(nearest, math.Inf(-1)):
			off++
		default:
			t.Fatalf("trial %d: Value %v, exact sum %v rounds to %v", trial, got, exact, nearest)
		}
	}
	t.Logf("%d of %d sums one ulp from the nearest float64", off, trials)
}

func TestSpecialValues(t *testing.T) {
	cases := []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, math.Inf(1)}, math.Inf(1)},
		{[]float64{math.Inf(-1), -1}, math.Inf(-1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{[]float64{math.NaN(), 1}, math.NaN()},
		{[]float64{math.Inf(1), math.NaN()}, math.NaN()},
	}
	for _, c := range cases {
		got := sumOf(c.vs).Value()
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(c.want) && got != c.want) {
			t.Errorf("sum(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
	// Specials survive a merge.
	a, b := sumOf([]float64{math.Inf(1)}), sumOf([]float64{3})
	b.Merge(a)
	if got := b.Value(); !math.IsInf(got, 1) {
		t.Errorf("merged inf lost: %v", got)
	}
}

func TestResetAndIsZero(t *testing.T) {
	s := sumOf([]float64{1, -2, math.NaN()})
	if s.IsZero() {
		t.Error("nonempty sum reported zero")
	}
	s.Reset()
	if !s.IsZero() {
		t.Error("reset sum not zero")
	}
	if got := s.Value(); got != 0 {
		t.Errorf("reset sum values %v", got)
	}
	s.Add(7)
	if got := s.Value(); got != 7 {
		t.Errorf("reuse after reset: %v", got)
	}
	var empty Sum
	if !empty.IsZero() {
		t.Error("zero value not zero")
	}
}

// TestValueIdempotent: Value must not consume or perturb the sum.
func TestValueIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vs := randomValues(rng, 200)
	s := sumOf(vs)
	first := s.Value()
	for i := 0; i < 3; i++ {
		if got := s.Value(); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("Value changed across calls: %x vs %x", got, first)
		}
	}
	s.Add(1.5)
	want := sumOf(append(append([]float64(nil), vs...), 1.5)).Value()
	if got := s.Value(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Add after Value diverged: %x vs %x", got, want)
	}
}

// TestCarrySaturation: enough max-magnitude mass overflows to the correct
// infinity instead of silently corrupting limbs.
func TestCarrySaturation(t *testing.T) {
	var s Sum
	// Drive the top limb over 2^32 via repeated merges that double the mass:
	// 2^14 copies of MaxFloat64 already exceed the representable 2^1038.
	s.Add(math.MaxFloat64)
	for i := 0; i < 80; i++ {
		c := s // copy shares no pointers when neg is nil
		s.Merge(&c)
	}
	if got := s.Value(); !math.IsInf(got, 1) {
		t.Errorf("2^80 * MaxFloat64 = %v, want +Inf", got)
	}
}

func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vs := randomValues(rng, 1024)
	var s Sum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vs[i&1023])
	}
	if s.Value() == 0 && b.N > 0 {
		b.Log("unexpected zero") // keep s live
	}
}
