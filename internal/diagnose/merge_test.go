package diagnose

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"drbw/internal/pebs"
)

// TestTimelineAddClampsBelowRange is the regression test for the negative
// bucket index panic: a pass-two sample earlier than anything pass one
// observed (shard merged out of order, or a file mutated between passes)
// used to index buckets[-something]. It must clamp into the first bucket
// instead.
func TestTimelineAddClampsBelowRange(t *testing.T) {
	acc := NewTimelineAccumulator(4, 1)
	observed := []pebs.Sample{mkSample(10, true, 100), mkSample(20, true, 100)}
	acc.Observe(observed)
	// Time 5 < minT 10: pre-fix this panicked with index out of range.
	stray := []pebs.Sample{mkSample(5, true, 700)}
	acc.Add(observed)
	acc.Add(stray)
	b := acc.Buckets()
	if len(b) != 4 {
		t.Fatalf("%d buckets", len(b))
	}
	if b[0].Samples != 2 {
		t.Errorf("first bucket holds %v samples, want 2 (observed + clamped stray)", b[0].Samples)
	}
	var total float64
	for _, x := range b {
		total += x.Samples
	}
	if total != 3 {
		t.Errorf("timeline holds %v samples, want all 3", total)
	}

	// The slice form clamps identically.
	all := append(append([]pebs.Sample{}, observed...), stray...)
	if got := Timeline(all, 4, 1); got == nil {
		t.Fatal("Timeline returned nil")
	}
}

// TestTimelineForkMergeMatchesSerial is the shard contract for the
// timeline: the range stated from per-part summaries, the counts merged
// from Fork clones fed arbitrary disjoint chunks in arbitrary order,
// bit-identical to the serial accumulator.
func TestTimelineForkMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	samples := make([]pebs.Sample, 3000)
	for i := range samples {
		samples[i] = mkSample(float64(i), rng.Intn(3) > 0, (100+1400*rng.Float64())*(0.8+0.4*rng.Float64()))
	}
	const n, weight = 32, 2.5
	want := Timeline(samples, n, weight)

	for trial := 0; trial < 10; trial++ {
		// Split into arbitrary contiguous parts.
		nparts := 1 + rng.Intn(5)
		var parts [][]pebs.Sample
		start := 0
		for i := 0; i < nparts; i++ {
			end := len(samples)
			if i < nparts-1 {
				end = start + rng.Intn(len(samples)-start+1)
			}
			parts = append(parts, samples[start:end])
			start = end
		}

		// The range: each part summarized on its own, folded in shuffled
		// order.
		parent := NewTimelineAccumulator(n, weight)
		for _, p := range rng.Perm(nparts) {
			if len(parts[p]) == 0 {
				continue
			}
			lo, hi := parts[p][0].Time, parts[p][0].Time
			for _, s := range parts[p] {
				lo, hi = math.Min(lo, s.Time), math.Max(hi, s.Time)
			}
			parent.ObserveRange(lo, hi, len(parts[p]))
		}

		// The counts: per-part forks, merged in a different shuffled order.
		forks := make([]*TimelineAccumulator, nparts)
		for i, part := range parts {
			forks[i] = parent.Fork()
			forks[i].Add(part)
		}
		for _, p := range rng.Perm(nparts) {
			if err := parent.Merge(forks[p]); err != nil {
				t.Fatal(err)
			}
		}
		if got := parent.Buckets(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sharded timeline differs from serial", trial)
		}
	}
}

// TestTimelineMergeRejectsMismatch: shape mismatches error out instead of
// misbucketing.
func TestTimelineMergeRejectsMismatch(t *testing.T) {
	a := NewTimelineAccumulator(8, 1)
	if err := a.Merge(NewTimelineAccumulator(4, 1)); err == nil {
		t.Error("bucket count mismatch accepted")
	}
	if err := a.Merge(NewTimelineAccumulator(8, 2)); err == nil {
		t.Error("weight mismatch accepted")
	}
	one := []pebs.Sample{mkSample(1, true, 100)}
	a.Observe(one)
	frozen := a.Fork()
	if err := a.Merge(frozen); err != nil {
		// a froze when Fork ran, so this merge is legal; sanity only.
		t.Errorf("fork merge failed: %v", err)
	}
}
