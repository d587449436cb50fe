package features

import (
	"math/rand"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// channelVectorsSlow is the original O(channels × samples) implementation:
// associate for the gate, then one full Extract scan per remote channel. The
// dense single-pass ChannelVectors must match it bit for bit.
func channelVectorsSlow(m *topology.Machine, samples []pebs.Sample, weight float64, minSamples int) map[topology.Channel]Vector {
	perChannel := pebs.Associate(samples)
	out := make(map[topology.Channel]Vector)
	for _, ch := range m.RemoteChannels() {
		if len(perChannel[ch]) < minSamples {
			continue
		}
		out[ch] = Extract(samples, ch, weight)
	}
	return out
}

// TestChannelVectorsMatchesExtract fuzzes random sample batches over a 4-node
// machine and requires exact (==, not approximate) equality between the dense
// single-pass ChannelVectors and the per-channel Extract reference, for every
// channel and feature, across several minSamples gates.
func TestChannelVectorsMatchesExtract(t *testing.T) {
	m := topology.XeonE5_4650()
	rng := rand.New(rand.NewSource(9))
	levels := []cache.Level{cache.L1, cache.L2, cache.L3, cache.LFB, cache.MEM}
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(4000)
		samples := make([]pebs.Sample, n)
		for i := range samples {
			src := topology.NodeID(rng.Intn(m.Nodes()))
			home := topology.NodeID(rng.Intn(m.Nodes()))
			if rng.Intn(20) == 0 {
				home = topology.InvalidNode // untouched page in profiler view
			}
			samples[i] = pebs.Sample{
				Latency:  float64(10 + rng.Intn(1500)),
				Level:    levels[rng.Intn(len(levels))],
				SrcNode:  src,
				HomeNode: home,
			}
		}
		weight := 1 + 50*rng.Float64()
		for _, minSamples := range []int{0, 1, 25, 100} {
			want := channelVectorsSlow(m, samples, weight, minSamples)
			got := ChannelVectors(m, samples, weight, minSamples)
			if len(want) != len(got) {
				t.Fatalf("trial %d minSamples %d: channel set %d vs %d", trial, minSamples, len(got), len(want))
			}
			for ch, wv := range want {
				gv, ok := got[ch]
				if !ok {
					t.Fatalf("trial %d: channel %v missing from dense result", trial, ch)
				}
				if gv != wv {
					t.Fatalf("trial %d minSamples %d channel %v:\ndense %v\nslow  %v", trial, minSamples, ch, gv, wv)
				}
			}
		}
	}
}
