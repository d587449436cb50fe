package diagnose

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"drbw/internal/pebs"
)

// TestTimelineAddClampsBelowRange is the regression test for the negative
// bucket index panic: a sample earlier than the stated range once indexed
// buckets[-something]. Add widens the range, so such a sample lands in the
// first bucket.
func TestTimelineAddClampsBelowRange(t *testing.T) {
	acc := NewTimelineAccumulator(4, 1)
	observed := []pebs.Sample{mkSample(10, true, 100), mkSample(20, true, 100)}
	acc.ObserveRange(10, 20, len(observed))
	stray := []pebs.Sample{mkSample(5, true, 700), mkSample(6, true, 300)}
	acc.Add(observed)
	acc.Add(stray)
	b := acc.Buckets()
	if len(b) != 4 {
		t.Fatalf("%d buckets", len(b))
	}
	if b[0].Start != 5 || b[0].RemoteSamples != 2 || b[0].AvgRemoteLatency != 500 {
		t.Errorf("first bucket %+v, want start 5 holding both strays", b[0])
	}
	var total float64
	for _, x := range b {
		total += x.RemoteSamples
	}
	if total != 4 {
		t.Errorf("timeline holds %v samples, want all 4", total)
	}

	// The slice form buckets identically.
	all := append(append([]pebs.Sample{}, observed...), stray...)
	if got := Timeline(all, 4, 1); !reflect.DeepEqual(got, b) {
		t.Errorf("Timeline = %+v, want %+v", got, b)
	}
}

// TestTimelineMergeMatchesSerial is the shard contract for the timeline:
// random contiguous parts, each added to its own accumulator in random
// chunks and merged in random order, are bit-identical to Timeline over
// the whole slice — with every time equal, and with no remote samples at
// all.
func TestTimelineMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mk := func(time func(i int) float64, remote func() bool) []pebs.Sample {
		samples := make([]pebs.Sample, 3000)
		for i := range samples {
			samples[i] = mkSample(time(i), remote(), math.Round((100+1400*rng.Float64())*(0.8+0.4*rng.Float64())))
		}
		return samples
	}
	someRemote := func() bool { return rng.Intn(3) > 0 }
	inputs := map[string][]pebs.Sample{
		"shuffled":  mk(func(int) float64 { return float64(rng.Intn(100000)) }, someRemote),
		"all-equal": mk(func(int) float64 { return 42 }, someRemote),
		"no-remote": mk(func(i int) float64 { return float64(i) }, func() bool { return false }),
	}
	const n, weight = 32, 2.5
	for name, samples := range inputs {
		want := Timeline(samples, n, weight)
		if len(want) != n {
			t.Fatalf("%s: %d buckets, want %d", name, len(want), n)
		}
		for trial := 0; trial < 10; trial++ {
			nparts := 1 + rng.Intn(5)
			parts := make([]*TimelineAccumulator, nparts)
			start := 0
			for i := range parts {
				end := len(samples)
				if i < nparts-1 {
					end = start + rng.Intn(len(samples)-start+1)
				}
				parts[i] = NewTimelineAccumulator(n, weight)
				for lo := start; lo < end; {
					hi := min(end, lo+1+rng.Intn(700))
					parts[i].Add(samples[lo:hi])
					lo = hi
				}
				start = end
			}
			merged := NewTimelineAccumulator(n, weight)
			for _, p := range rng.Perm(nparts) {
				if err := merged.Merge(parts[p]); err != nil {
					t.Fatal(err)
				}
			}
			if got := merged.Buckets(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: merged timeline differs from serial\n got %+v\nwant %+v", name, trial, got, want)
			}
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
	a.Add([]pebs.Sample{mkSample(1, true, 100)})
	if err := a.Merge(NewTimelineAccumulator(8, 1)); err != nil {
		t.Errorf("same-shape merge failed: %v", err)
	}
}
