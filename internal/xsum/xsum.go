// Package xsum provides exact, order-independent float64 summation.
//
// The shard-parallel trace pipeline splits one recording across workers and
// merges their partial accumulators, promising a report bit-identical to the
// serial walk. Plain float64 running sums cannot keep that promise: float
// addition is not associative, so the grouping imposed by a particular shard
// split leaks into the low bits of the result. Sum removes the grouping from
// the picture entirely by accumulating in fixed point.
//
// A Sum holds the running total as a wide binary integer: an array of 32-bit
// limbs (stored in uint64s for carry headroom) spanning every bit position a
// finite float64 can occupy, one array for positive inputs and one for
// negative. Adding a float deposits its 53-bit mantissa into the limbs at the
// exponent's offset — an integer add, exact and commutative. Merging two Sums
// adds their limb arrays — also exact. The canonical limb state (the limbs
// after carry) is therefore a function of the multiset of added values
// only, never of the order or partitioning, and Value folds those limbs to
// a float64 by a fixed low-to-high sequence of float additions. Any split
// of a sample stream, summed in any order and merged in any shape, yields
// the same bits. The fold rounds more than once, so the result is within
// one ulp of the exact sum — the nearest float64 or a neighbour of it — but
// not always the nearest: a few percent of 200-term latency sums land one
// ulp off.
//
// This is the superaccumulator idea behind reproducible BLAS libraries,
// sized for float64: exactness costs a fixed ~600 B per Sum and a handful of
// integer ops per Add, which the trace pipeline pays only on its handful of
// per-channel latency sums.
package xsum

import "math"

const (
	// limbBits is the payload width of one limb; the upper 32 bits of the
	// uint64 are carry headroom.
	limbBits = 32
	// numLimbs spans bit positions 0..numLimbs*32-1 relative to 2^-1074, the
	// smallest subnormal. The largest finite float64 tops out at bit 2097;
	// the extra limbs absorb carries from astronomically long sums before
	// the saturation check in carry() fires.
	numLimbs = 68
	// carryEvery bounds how many Adds can land between carry propagations.
	// Each Add deposits < 2^32 into a limb, so after carryEvery Adds a limb
	// holds < 2^32 * (carryEvery + 1) < 2^63 and cannot have overflowed.
	carryEvery = 1 << 30
)

// Sum is an exact float64 accumulator. The zero value is an empty sum ready
// for use. A Sum is not safe for concurrent use.
type Sum struct {
	pos  [numLimbs]uint64
	neg  *[numLimbs]uint64 // lazily allocated: negative inputs are rare
	adds uint32

	nan    bool
	posInf bool
	negInf bool
}

// Add folds v into the sum exactly. NaN and infinities set sticky flags that
// Value reports the way a naive fold would (NaN wins, opposing infinities
// make NaN).
func (s *Sum) Add(v float64) {
	bits := math.Float64bits(v)
	exp := int(bits >> 52 & 0x7ff)
	frac := bits & (1<<52 - 1)
	if exp == 0x7ff {
		switch {
		case frac != 0:
			s.nan = true
		case bits>>63 == 0:
			s.posInf = true
		default:
			s.negInf = true
		}
		return
	}
	if exp == 0 && frac == 0 {
		return // ±0 contributes nothing
	}
	// v = mant * 2^(p-1074) with mant in [1, 2^53): the mantissa lands at
	// bit offset p of the limb array.
	mant, p := frac, 0
	if exp > 0 {
		mant |= 1 << 52
		p = exp - 1
	}
	limbs := &s.pos
	if bits>>63 != 0 {
		if s.neg == nil {
			s.neg = new([numLimbs]uint64)
		}
		limbs = s.neg
	}
	i, sh := p>>5, uint(p&31)
	lo := mant << sh
	limbs[i] += lo & (1<<limbBits - 1)
	limbs[i+1] += lo >> limbBits
	if sh > 11 { // mant<<sh spills past 64 bits once sh exceeds 64-53
		limbs[i+2] += mant >> (64 - sh)
	}
	if s.adds++; s.adds >= carryEvery {
		s.carry()
	}
}

// carry propagates limb overflow upward, restoring every limb to its 32-bit
// canonical range. A carry out of the top limb means the total left the
// range even the widened array can express (≥ 2^1102, reachable only after
// ~2^78 max-magnitude adds); it saturates to the matching infinity, exactly
// where a naive fold would long since have overflowed.
func (s *Sum) carry() {
	if !carryLimbs(&s.pos) {
		s.posInf = true
	}
	if s.neg != nil && !carryLimbs(s.neg) {
		s.negInf = true
	}
	s.adds = 0
}

func carryLimbs(l *[numLimbs]uint64) (ok bool) {
	var c uint64
	for i := range l {
		v := l[i] + c
		l[i] = v & (1<<limbBits - 1)
		c = v >> limbBits
	}
	return c == 0
}

// Merge folds o into s, exactly as if every value added to o had been added
// to s instead. Both sums are carry-normalized in the process; o's logical
// value is unchanged.
func (s *Sum) Merge(o *Sum) {
	s.carry()
	o.carry()
	for i := range s.pos {
		s.pos[i] += o.pos[i]
	}
	if o.neg != nil {
		if s.neg == nil {
			s.neg = new([numLimbs]uint64)
		}
		for i := range s.neg {
			s.neg[i] += o.neg[i]
		}
	}
	s.carry()
	s.nan = s.nan || o.nan
	s.posInf = s.posInf || o.posInf
	s.negInf = s.negInf || o.negInf
}

// Reset returns the sum to empty without touching other state.
func (s *Sum) Reset() {
	s.pos = [numLimbs]uint64{}
	if s.neg != nil {
		*s.neg = [numLimbs]uint64{}
	}
	s.adds = 0
	s.nan, s.posInf, s.negInf = false, false, false
}

// IsZero reports whether the sum is exactly empty (no finite mass and no
// special-value flags).
func (s *Sum) IsZero() bool {
	if s.nan || s.posInf || s.negInf {
		return false
	}
	for _, v := range s.pos {
		if v != 0 {
			return false
		}
	}
	if s.neg != nil {
		for _, v := range s.neg {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// Value rounds the exact total to float64, to within one ulp: the nearest
// float64 or a neighbour of it. The result depends only on the multiset of
// added values: any insertion order, any chunking, any merge tree produces
// identical bits. Value does not consume the sum.
func (s *Sum) Value() float64 {
	switch {
	case s.nan, s.posInf && s.negInf:
		return math.NaN()
	case s.posInf:
		return math.Inf(1)
	case s.negInf:
		return math.Inf(-1)
	}
	s.carry()
	if s.neg == nil {
		return assemble(&s.pos)
	}
	// Mixed signs: subtract exactly in the limb domain, then round once.
	switch compareLimbs(&s.pos, s.neg) {
	case 0:
		return 0
	case 1:
		var d [numLimbs]uint64
		subLimbs(&d, &s.pos, s.neg)
		return assemble(&d)
	default:
		var d [numLimbs]uint64
		subLimbs(&d, s.neg, &s.pos)
		return -assemble(&d)
	}
}

// compareLimbs orders two canonical limb arrays as integers.
func compareLimbs(a, b *[numLimbs]uint64) int {
	for i := numLimbs - 1; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] > b[i] {
				return 1
			}
			return -1
		}
	}
	return 0
}

// subLimbs sets d = a - b on canonical limbs; a must not be below b.
func subLimbs(d, a, b *[numLimbs]uint64) {
	var borrow uint64
	for i := range d {
		sub := b[i] + borrow
		if a[i] >= sub {
			d[i] = a[i] - sub
			borrow = 0
		} else {
			d[i] = a[i] + (1 << limbBits) - sub
			borrow = 1
		}
	}
}

// assemble folds canonical limbs into a float64, low to high. Each step
// may round, so the result can miss the nearest float64 by one ulp; the
// input limbs are a pure function of the exact sum, so the result is too.
func assemble(l *[numLimbs]uint64) float64 {
	v := 0.0
	for i := 0; i < numLimbs; i++ {
		if l[i] != 0 {
			v += math.Ldexp(float64(l[i]), limbBits*i-1074)
		}
	}
	return v
}
