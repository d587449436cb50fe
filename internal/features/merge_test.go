package features

import (
	"math"
	"math/rand"
	"testing"

	"drbw/internal/topology"
)

// TestAccumulatorMergeMatchesSerial is the shard contract: partition the
// trace at arbitrary boundaries, accumulate each part independently, merge
// in arbitrary order, and the vectors must be bit-identical to one serial
// accumulator.
func TestAccumulatorMergeMatchesSerial(t *testing.T) {
	m := topology.Uniform(4, 2)
	rng := rand.New(rand.NewSource(11))
	samples := randomSamples(6000, 2)
	for i := range samples {
		samples[i].Latency = math.Round(samples[i].Latency * (0.8 + 0.4*rng.Float64())) // collector noise, in whole cycles
	}
	serial := NewAccumulator(m)
	serial.Add(samples)
	want := serial.Vectors(2.75, 10)

	for trial := 0; trial < 10; trial++ {
		nparts := 1 + rng.Intn(6)
		parts := make([]*Accumulator, nparts)
		for i := range parts {
			parts[i] = NewAccumulator(m)
		}
		// Split at arbitrary boundaries.
		start := 0
		for i := 0; i < nparts; i++ {
			end := len(samples)
			if i < nparts-1 {
				end = start + rng.Intn(len(samples)-start+1)
			}
			parts[i].Add(samples[start:end])
			start = end
		}
		// Merge in a shuffled order onto a fresh target.
		order := rng.Perm(nparts)
		merged := NewAccumulator(m)
		for _, p := range order {
			if err := merged.Merge(parts[p]); err != nil {
				t.Fatal(err)
			}
		}
		got := merged.Vectors(2.75, 10)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d channels, want %d", trial, len(got), len(want))
		}
		for ch, wv := range want {
			if gv := got[ch]; gv != wv {
				t.Fatalf("trial %d: channel %v merged vector differs:\n got %v\nwant %v", trial, ch, gv, wv)
			}
		}
		if gs, ws := batchTotal(merged), batchTotal(serial); gs != ws {
			t.Fatalf("trial %d: merged batches hold %d samples, serial %d", trial, gs, ws)
		}
	}
}

// TestAccumulatorMergeShapeMismatch rejects accumulators from different
// machines instead of silently mixing indices.
func TestAccumulatorMergeShapeMismatch(t *testing.T) {
	a := NewAccumulator(topology.Uniform(4, 2))
	b := NewAccumulator(topology.Uniform(2, 2))
	if err := a.Merge(b); err == nil {
		t.Fatal("merging 4-node into 2-node accumulator should fail")
	}
}

// TestAccumulatorMergeLeavesSourceUsable: merging must not consume the
// source — a worker's accumulator can be inspected after the merge.
func TestAccumulatorMergeLeavesSourceUsable(t *testing.T) {
	m := topology.Uniform(4, 2)
	samples := randomSamples(2000, 3)
	src := NewAccumulator(m)
	src.Add(samples)
	want := src.Vectors(1, 0)

	dst := NewAccumulator(m)
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	got := src.Vectors(1, 0)
	if len(got) != len(want) {
		t.Fatalf("source channel set changed after merge")
	}
	for ch, wv := range want {
		if gv := got[ch]; gv != wv {
			t.Fatalf("channel %v: source vector changed after merge:\n got %v\nwant %v", ch, gv, wv)
		}
	}
}
