package features

import (
	"math/rand"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// randomSamples builds a mixed-channel sample stream over a 4-node machine.
func randomSamples(n int, seed int64) []pebs.Sample {
	rng := rand.New(rand.NewSource(seed))
	levels := []cache.Level{cache.L1, cache.L2, cache.L3, cache.LFB, cache.MEM}
	out := make([]pebs.Sample, n)
	for i := range out {
		out[i] = pebs.Sample{
			Time:     float64(i * 100),
			Latency:  float64(rng.Intn(1200)),
			Level:    levels[rng.Intn(len(levels))],
			Write:    rng.Intn(4) == 0,
			SrcNode:  topology.NodeID(rng.Intn(4)),
			HomeNode: topology.NodeID(rng.Intn(4)),
		}
	}
	return out
}

// TestAccumulatorChunkedMatchesBatch pins the streaming contract: feeding
// the trace in chunks of any size yields bit-identical vectors to one
// ChannelVectors pass over the whole slice.
func TestAccumulatorChunkedMatchesBatch(t *testing.T) {
	m := topology.Uniform(4, 2)
	samples := randomSamples(5000, 1)
	want := ChannelVectors(m, samples, 3.5, 10)

	for _, chunk := range []int{1, 7, 64, 1024, len(samples)} {
		acc := NewAccumulator(m)
		for start := 0; start < len(samples); start += chunk {
			end := start + chunk
			if end > len(samples) {
				end = len(samples)
			}
			acc.Add(samples[start:end])
		}
		got := acc.Vectors(3.5, 10)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d channels, want %d", chunk, len(got), len(want))
		}
		for ch, wv := range want {
			gv, ok := got[ch]
			if !ok {
				t.Fatalf("chunk %d: channel %v missing", chunk, ch)
			}
			if gv != wv {
				t.Fatalf("chunk %d: channel %v vectors differ:\n got %v\nwant %v", chunk, ch, gv, wv)
			}
		}
	}
}

// TestAccumulatorReset pins that a reused accumulator behaves like a fresh
// one.
func TestAccumulatorReset(t *testing.T) {
	m := topology.Uniform(4, 2)
	first := randomSamples(2000, 2)
	second := randomSamples(3000, 3)

	acc := NewAccumulator(m)
	acc.Add(first)
	acc.Reset()
	acc.Add(second)
	got := acc.Vectors(2, 10)
	want := ChannelVectors(m, second, 2, 10)
	if len(got) != len(want) {
		t.Fatalf("%d channels after reset, want %d", len(got), len(want))
	}
	for ch, wv := range want {
		if got[ch] != wv {
			t.Fatalf("channel %v differs after reset", ch)
		}
	}
	if acc.SampleCount() != float64(len(second)) {
		t.Fatalf("SampleCount = %g, want %d", acc.SampleCount(), len(second))
	}
}
