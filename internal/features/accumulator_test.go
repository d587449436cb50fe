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
	if n := batchTotal(acc); n != int64(len(second)) {
		t.Fatalf("%d samples in the batches after reset, want %d", n, len(second))
	}
}

// batchTotal sums the samples that have landed in every socket's batch.
func batchTotal(a *Accumulator) int64 {
	var n int64
	for _, b := range a.batch {
		n += b
	}
	return n
}

// TestBusiest pins the channel a whole run is represented by: the remote
// channel with the most MEM/LFB samples, else the busiest source socket's
// channel to the next node, every tie going to the lowest node.
func TestBusiest(t *testing.T) {
	rep := func(n int, smp pebs.Sample) []pebs.Sample {
		out := make([]pebs.Sample, n)
		for i := range out {
			out[i] = smp
		}
		return out
	}
	cat := func(parts ...[]pebs.Sample) []pebs.Sample {
		var out []pebs.Sample
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	four, two := topology.Uniform(4, 2), topology.Uniform(2, 2)
	for _, tc := range []struct {
		name    string
		m       *topology.Machine
		samples []pebs.Sample
		want    topology.Channel
	}{
		{"most remote samples", four, cat(
			rep(2, s(600, cache.MEM, 0, 1)),
			rep(3, s(600, cache.LFB, 2, 3)),
			rep(9, s(40, cache.L1, 1, 1)),
		), topology.Channel{Src: 2, Dst: 3}},
		{"remote tie goes to the first channel", four, cat(
			rep(3, s(600, cache.MEM, 2, 0)),
			rep(3, s(600, cache.LFB, 1, 2)),
			rep(1, s(600, cache.MEM, 0, 3)),
		), topology.Channel{Src: 1, Dst: 2}},
		{"cache hits on a remote home do not count", four, cat(
			rep(5, s(40, cache.L3, 0, 1)),
			rep(1, s(600, cache.MEM, 3, 2)),
		), topology.Channel{Src: 3, Dst: 2}},
		{"no remote samples: busiest socket", four, cat(
			rep(2, s(200, cache.MEM, 0, 0)),
			rep(4, s(40, cache.L1, 2, 2)),
			rep(3, s(40, cache.L2, 1, 1)),
		), topology.Channel{Src: 2, Dst: 3}},
		{"no remote samples: last socket wraps", four, cat(
			rep(4, s(40, cache.L1, 3, 3)),
			rep(1, s(40, cache.L1, 0, 0)),
		), topology.Channel{Src: 3, Dst: 0}},
		{"tied sockets go to the lowest node", four, cat(
			rep(80, s(40, cache.L1, 3, 3)),
			rep(80, s(40, cache.L1, 1, 1)),
			rep(80, s(40, cache.L1, 2, 2)),
			rep(10, s(40, cache.L1, 0, 0)),
		), topology.Channel{Src: 1, Dst: 2}},
		{"no samples", four, nil, topology.Channel{Src: 0, Dst: 1}},
		{"two nodes: remote tie", two, cat(
			rep(2, s(600, cache.MEM, 1, 0)),
			rep(2, s(600, cache.MEM, 0, 1)),
		), topology.Channel{Src: 0, Dst: 1}},
		{"two nodes: busiest socket", two, cat(
			rep(3, s(40, cache.L1, 1, 1)),
			rep(2, s(40, cache.L1, 0, 0)),
		), topology.Channel{Src: 1, Dst: 0}},
		{"two nodes: tied sockets", two, cat(
			rep(2, s(40, cache.L1, 1, 1)),
			rep(2, s(40, cache.L1, 0, 0)),
		), topology.Channel{Src: 0, Dst: 1}},
	} {
		acc := NewAccumulator(tc.m)
		acc.Add(tc.samples)
		if got := acc.Busiest(); got != tc.want {
			t.Errorf("%s: Busiest = %v, want %v", tc.name, got, tc.want)
		}
	}
}
