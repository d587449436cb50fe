package features

import (
	"math/rand"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// extract is the reference Table I vector for channel ch: one full scan of
// the run's samples, keeping ch's source-socket batch. The Accumulator must
// match it bit for bit; latencies are whole cycles, so both sum them
// exactly in integers.
func extract(samples []pebs.Sample, ch topology.Channel, weight float64) Vector {
	if weight <= 0 {
		weight = 1
	}
	var v Vector
	var batch, remote, local, lfb float64
	var latSum, remoteLat, localLat, lfbLat uint64
	var above [5]float64
	for _, s := range samples {
		if s.SrcNode != ch.Src {
			continue
		}
		batch++
		lat := uint64(s.Latency)
		latSum += lat
		for i, th := range latencyThresholds {
			if s.Latency > th {
				above[i]++
			}
		}
		switch {
		case s.Level == cache.MEM && s.HomeNode == ch.Dst && !ch.Local():
			remote++
			remoteLat += lat
		case s.Level == cache.MEM && s.HomeNode == s.SrcNode:
			local++
			localLat += lat
		case s.Level == cache.LFB:
			lfb++
			lfbLat += lat
		}
	}
	if batch == 0 {
		return v
	}
	for i := range above {
		v[i] = above[i] / batch
	}
	v[5] = remote * weight
	if remote > 0 {
		v[6] = float64(remoteLat) / remote
	}
	v[7] = local * weight
	if local > 0 {
		v[8] = float64(localLat) / local
	}
	v[9] = batch * weight
	v[10] = float64(latSum) / batch
	v[11] = lfb * weight
	if lfb > 0 {
		v[12] = float64(lfbLat) / lfb
	}
	return v
}

// channelVectorsSlow is the O(channels × samples) reference: file every
// MEM/LFB sample under its src→home channel for the gate, then one full
// extract scan per remote channel.
func channelVectorsSlow(m *topology.Machine, samples []pebs.Sample, weight float64, minSamples int) map[topology.Channel]Vector {
	perChannel := make(map[topology.Channel]int)
	for _, s := range samples {
		if s.Level == cache.MEM || s.Level == cache.LFB {
			perChannel[s.Channel()]++
		}
	}
	out := make(map[topology.Channel]Vector)
	for _, ch := range m.RemoteChannels() {
		if perChannel[ch] < minSamples {
			continue
		}
		out[ch] = extract(samples, ch, weight)
	}
	return out
}

// TestChannelVectorsMatchesExtract fuzzes random sample batches over a 4-node
// machine and requires exact (==, not approximate) equality between the dense
// single-pass ChannelVectors and the per-channel extract reference, for every
// channel and feature, across several minSamples gates. Accumulator.Vector
// must match extract on every channel, local ones included.
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
		acc := NewAccumulator(m)
		acc.Add(samples)
		for _, ch := range m.Channels() {
			if got, want := acc.Vector(ch, weight), extract(samples, ch, weight); got != want {
				t.Fatalf("trial %d channel %v:\nVector  %v\nextract %v", trial, ch, got, want)
			}
		}
	}
}
