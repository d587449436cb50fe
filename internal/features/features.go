// Package features turns batches of PEBS samples into the statistical
// feature vectors DR-BW's classifier consumes.
//
// The paper derives a large candidate list of per-batch statistics
// (identification, location and latency categories — Section V-B), then
// keeps the 13 features of Table I that differ significantly between the
// "good" and "rmc" modes of the training mini-programs. This package
// implements both the selected Table I vector (Accumulator, the one producer
// of it for training, the ablations and detection) and the full candidate
// list plus the selection filter (Candidates, SelectRelevant) so the
// selection experiment is reproducible.
//
// A feature vector always describes one directed remote channel S→T,
// evaluated against the batch of samples issued by socket S: remote-DRAM
// features count the samples that travelled S→T, local-DRAM features count
// S's local samples, and the latency-ratio features summarize S's whole
// batch. This is the paper's per-channel detection granularity.
package features

import (
	"fmt"
	"math"
	"sort"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// Label is the training/detection class of one run or channel.
type Label int

// The two modes the paper defines for every run.
const (
	Good Label = iota // no remote memory bandwidth contention
	RMC               // remote memory bandwidth contention
)

// String names the label like the paper does.
func (l Label) String() string {
	switch l {
	case Good:
		return "good"
	case RMC:
		return "rmc"
	default:
		return fmt.Sprintf("Label(%d)", int(l))
	}
}

// NumFeatures is the size of the selected vector (Table I).
const NumFeatures = 13

// Vector is one Table I feature vector.
type Vector [NumFeatures]float64

// Names describes each selected feature, in Table I order.
var Names = [NumFeatures]string{
	"ratio of latency above 1000",
	"ratio of latency above 500",
	"ratio of latency above 200",
	"ratio of latency above 100",
	"ratio of latency above 50",
	"num remote dram access samples",
	"avg remote dram access latency",
	"num local dram access samples",
	"avg local dram access latency",
	"total num memory access samples",
	"avg memory access latency",
	"num line fill buffer access samples",
	"line fill buffer access latency",
}

// latencyThresholds backs features 1-5.
var latencyThresholds = [5]float64{1000, 500, 200, 100, 50}

// ChannelVectors computes one vector per remote channel that has at least
// minSamples samples, over the whole machine.
//
// It is a single dense pass over the samples: every Table I statistic is
// either per-source-socket (shared by all channels of that socket) or per
// directed channel, so one walk accumulates both and the vectors assemble at
// the end, O(samples + channels). Whole-cycle latencies sum in integers, so
// the vectors depend on the sample multiset alone.
func ChannelVectors(m *topology.Machine, samples []pebs.Sample, weight float64, minSamples int) map[topology.Channel]Vector {
	acc := NewAccumulator(m)
	acc.Add(samples)
	return acc.Vectors(weight, minSamples)
}

// Accumulator builds Table I channel vectors incrementally — the streaming
// form of ChannelVectors. Feed it sample chunks with Add (a block iterator's
// output, or one whole slice) and finish with Vectors. Counts and the
// whole-cycle latency sums are integers, converted to float64 at assembly
// time, so the result is bit-identical to a single ChannelVectors call
// over the same sample multiset — chunking, ordering and Merge trees do
// not matter — while peak memory stays O(nodes²) regardless of trace
// length. An Accumulator is not safe for concurrent use; Reset recycles one
// between traces without reallocating.
type Accumulator struct {
	m  *topology.Machine
	nn int
	// Per-source-socket aggregates.
	batch    []int64
	latSum   []uint64
	above    [][5]int64
	local    []int64
	localLat []uint64
	lfb      []int64
	lfbLat   []uint64
	// Per directed channel: remote-DRAM terms, and assoc, the MEM/LFB
	// samples filed under their src→home channel, which backs the
	// minSamples gate and Busiest.
	remote    []int64
	remoteLat []uint64
	assoc     []int
}

// NewAccumulator returns an empty accumulator for machine m.
func NewAccumulator(m *topology.Machine) *Accumulator {
	nn := m.Nodes()
	nch := m.NumChannels()
	return &Accumulator{
		m: m, nn: nn,
		batch:  make([]int64, nn),
		latSum: make([]uint64, nn),
		above:  make([][5]int64, nn),
		local:  make([]int64, nn), localLat: make([]uint64, nn),
		lfb: make([]int64, nn), lfbLat: make([]uint64, nn),
		remote: make([]int64, nch), remoteLat: make([]uint64, nch),
		assoc: make([]int, nch),
	}
}

// Reset clears the running sums so the accumulator can take the next trace.
func (a *Accumulator) Reset() {
	for i := range a.batch {
		a.batch[i], a.latSum[i] = 0, 0
		a.above[i] = [5]int64{}
		a.local[i], a.lfb[i] = 0, 0
		a.localLat[i], a.lfbLat[i] = 0, 0
	}
	for i := range a.remote {
		a.remote[i], a.assoc[i], a.remoteLat[i] = 0, 0, 0
	}
}

// Merge folds other's running statistics into a, exactly as if other's
// samples had been Added to a directly — the accumulator half of the
// shard-parallel pipeline. Summation order is immaterial by construction:
// counts and whole-cycle latency sums are exact integer arithmetic, so any
// merge tree over any partition of a
// trace reproduces the serial accumulator bit for bit. other is logically
// unchanged. Both accumulators must describe the same machine shape.
func (a *Accumulator) Merge(other *Accumulator) error {
	if a.nn != other.nn || len(a.remote) != len(other.remote) {
		return fmt.Errorf("features: cannot merge accumulators for different machine shapes (%d/%d nodes)", a.nn, other.nn)
	}
	for i := range a.batch {
		a.batch[i] += other.batch[i]
		a.latSum[i] += other.latSum[i]
		for j := range a.above[i] {
			a.above[i][j] += other.above[i][j]
		}
		a.local[i] += other.local[i]
		a.localLat[i] += other.localLat[i]
		a.lfb[i] += other.lfb[i]
		a.lfbLat[i] += other.lfbLat[i]
	}
	for i := range a.remote {
		a.remote[i] += other.remote[i]
		a.remoteLat[i] += other.remoteLat[i]
		a.assoc[i] += other.assoc[i]
	}
	return nil
}

// Add folds a chunk of samples into the running statistics. This loop runs
// once per sample on the analysis hot path, so it leans on the thresholds
// descending (walk from the smallest up and stop at the first one the
// latency does not clear) and dispatches on the level once.
func (a *Accumulator) Add(samples []pebs.Sample) {
	nn := a.nn
	for i := range samples {
		s := &samples[i]
		src := int(s.SrcNode)
		if src < 0 || src >= nn {
			continue // cannot belong to any channel's source batch
		}
		lat, cycles := s.Latency, uint64(s.Latency)
		a.batch[src]++
		a.latSum[src] += cycles
		ab := &a.above[src]
		for j := len(latencyThresholds) - 1; j >= 0 && lat > latencyThresholds[j]; j-- {
			ab[j]++
		}
		home := int(s.HomeNode)
		homeValid := home >= 0 && home < nn
		switch s.Level {
		case cache.MEM:
			if homeValid && home != src {
				ci := src*nn + home
				a.remote[ci]++
				a.remoteLat[ci] += cycles
			} else if s.HomeNode == s.SrcNode {
				a.local[src]++
				a.localLat[src] += cycles
			}
			if homeValid {
				a.assoc[src*nn+home]++
			}
		case cache.LFB:
			a.lfb[src]++
			a.lfbLat[src] += cycles
			if homeValid {
				a.assoc[src*nn+home]++
			}
		}
	}
}

// SampleCount reports how many samples have landed in any socket's batch.
func (a *Accumulator) SampleCount() float64 {
	var n int64
	for _, b := range a.batch {
		n += b
	}
	return float64(n)
}

// Busiest returns the channel whose vector represents a whole run: the
// remote channel with the most MEM/LFB samples, the first in RemoteChannels
// order on a tie. When no remote channel has any, it anchors on the source
// socket with the largest batch (the lowest node on a tie) and returns the
// channel from it to the next node, whose vector then has zero remote
// features — a clean "good" example. Every tie resolves by node order, so
// the choice is a function of the counts alone.
func (a *Accumulator) Busiest() topology.Channel {
	best, bestN := topology.Channel{}, 0
	for _, ch := range a.m.RemoteChannels() {
		if n := a.assoc[a.m.ChannelIndex(ch)]; n > bestN {
			best, bestN = ch, n
		}
	}
	if bestN > 0 {
		return best
	}
	src := 0
	for n := range a.batch {
		if a.batch[n] > a.batch[src] {
			src = n
		}
	}
	return topology.Channel{Src: topology.NodeID(src), Dst: topology.NodeID((src + 1) % a.nn)}
}

// Vector assembles channel ch's Table I vector from the running sums.
// weight scales count features (non-positive means 1). A channel whose
// source socket has no samples gets the zero vector.
func (a *Accumulator) Vector(ch topology.Channel, weight float64) Vector {
	if weight <= 0 {
		weight = 1
	}
	var v Vector
	src := int(ch.Src)
	if a.batch[src] == 0 {
		return v
	}
	batch := float64(a.batch[src])
	for i := 0; i < 5; i++ {
		v[i] = float64(a.above[src][i]) / batch
	}
	ci := a.m.ChannelIndex(ch) // a local channel's remote terms stay zero
	v[5] = float64(a.remote[ci]) * weight
	if a.remote[ci] > 0 {
		v[6] = float64(a.remoteLat[ci]) / float64(a.remote[ci])
	}
	v[7] = float64(a.local[src]) * weight
	if a.local[src] > 0 {
		v[8] = float64(a.localLat[src]) / float64(a.local[src])
	}
	v[9] = batch * weight
	v[10] = float64(a.latSum[src]) / batch
	v[11] = float64(a.lfb[src]) * weight
	if a.lfb[src] > 0 {
		v[12] = float64(a.lfbLat[src]) / float64(a.lfb[src])
	}
	return v
}

// Vectors assembles the Table I vector of every remote channel whose
// MEM/LFB sample count is at least minSamples. weight scales count features
// (non-positive means 1). Vectors does not consume the sums: the
// accumulator remains usable and appendable.
func (a *Accumulator) Vectors(weight float64, minSamples int) map[topology.Channel]Vector {
	out := make(map[topology.Channel]Vector)
	for _, ch := range a.m.RemoteChannels() {
		if a.assoc[a.m.ChannelIndex(ch)] >= minSamples {
			out[ch] = a.Vector(ch, weight)
		}
	}
	return out
}

// Candidates computes the full candidate statistics list of Section V-B for
// one sample batch (typically the batch of one source socket). Keys are
// stable; SelectRelevant consumes them. Whole-cycle latencies sum in
// integers, so the statistics depend on the sample multiset, not on its
// order.
func Candidates(samples []pebs.Sample, weight float64) map[string]float64 {
	if weight <= 0 {
		weight = 1
	}
	out := make(map[string]float64)
	if len(samples) == 0 {
		return out
	}
	var latSum, remoteLat, localLat uint64
	levelCount := map[cache.Level]float64{}
	levelLat := map[cache.Level]uint64{}
	var remote, local float64
	cpus := map[topology.CPUID]float64{}
	threads := map[int]float64{}
	nodes := map[topology.NodeID]float64{}
	var above [5]float64
	for _, s := range samples {
		lat := uint64(s.Latency)
		latSum += lat
		levelCount[s.Level]++
		levelLat[s.Level] += lat
		cpus[s.CPU]++
		threads[s.Thread]++
		nodes[s.SrcNode]++
		if s.RemoteDRAM() {
			remote++
			remoteLat += lat
		}
		if s.LocalDRAM() {
			local++
			localLat += lat
		}
		for i, th := range latencyThresholds {
			if s.Latency > th {
				above[i]++
			}
		}
	}
	n := float64(len(samples))

	// Statistics Latency.
	for i, th := range latencyThresholds {
		out[fmt.Sprintf("ratio_latency_above_%d", int(th))] = above[i] / n
	}
	out["avg_latency"] = float64(latSum) / n
	for lvl, c := range levelCount {
		if c > 0 {
			out["avg_latency_"+lvl.String()] = float64(levelLat[lvl]) / c
		}
	}
	if remote > 0 {
		out["avg_latency_remote_dram"] = float64(remoteLat) / remote
	} else {
		out["avg_latency_remote_dram"] = 0
	}
	if local > 0 {
		out["avg_latency_local_dram"] = float64(localLat) / local
	} else {
		out["avg_latency_local_dram"] = 0
	}

	// Statistics Location.
	out["num_l1_hit"] = levelCount[cache.L1] * weight
	out["num_l2_hit"] = levelCount[cache.L2] * weight
	out["num_l3_hit"] = levelCount[cache.L3] * weight
	out["num_lfb"] = levelCount[cache.LFB] * weight
	out["num_l3_miss"] = (levelCount[cache.LFB] + levelCount[cache.MEM]) * weight
	out["num_dram"] = levelCount[cache.MEM] * weight
	out["num_remote_dram"] = remote * weight
	out["num_local_dram"] = local * weight
	out["total_samples"] = n * weight

	// Statistics Identification.
	out["num_cpus"] = float64(len(cpus))
	out["num_threads"] = float64(len(threads))
	out["num_nodes"] = float64(len(nodes))
	maxPerCPU := 0.0
	for _, c := range cpus {
		if c > maxPerCPU {
			maxPerCPU = c
		}
	}
	out["max_share_per_cpu"] = maxPerCPU / n
	return out
}

// LabeledCandidates is the candidate statistics of one training run with its
// mini-program name and mode, the unit of the selection experiment.
type LabeledCandidates struct {
	Program string
	Mode    Label
	Values  map[string]float64
}

// SelectRelevant reproduces the paper's feature-selection filter: a
// candidate feature is kept when its statistics differ significantly between
// "good" and "rmc" runs for a majority of the mini-programs. Significance is
// a two-sample effect-size test: |mean(good) − mean(rmc)| > effectSize ×
// pooled standard deviation. Returns the kept feature names sorted.
func SelectRelevant(runs []LabeledCandidates, effectSize float64) []string {
	if effectSize <= 0 {
		effectSize = 0.8 // Cohen's d: "large effect"
	}
	programs := map[string][]LabeledCandidates{}
	for _, r := range runs {
		programs[r.Program] = append(programs[r.Program], r)
	}
	// Only programs with both classes can vote.
	voters := 0
	votes := map[string]int{}
	allKeys := map[string]bool{}
	for _, rs := range programs {
		var good, rmc []LabeledCandidates
		for _, r := range rs {
			if r.Mode == Good {
				good = append(good, r)
			} else {
				rmc = append(rmc, r)
			}
		}
		if len(good) == 0 || len(rmc) == 0 {
			continue
		}
		voters++
		keys := map[string]bool{}
		for _, r := range rs {
			for k := range r.Values {
				keys[k] = true
				allKeys[k] = true
			}
		}
		for k := range keys {
			mg, sg := meanStd(good, k)
			mr, sr := meanStd(rmc, k)
			pooled := math.Sqrt((sg*sg + sr*sr) / 2)
			if pooled == 0 {
				if mg != mr {
					votes[k]++
				}
				continue
			}
			if math.Abs(mg-mr) > effectSize*pooled {
				votes[k]++
			}
		}
	}
	var kept []string
	for k := range allKeys {
		if voters > 0 && votes[k]*2 > voters {
			kept = append(kept, k)
		}
	}
	sort.Strings(kept)
	return kept
}

func meanStd(runs []LabeledCandidates, key string) (mean, std float64) {
	n := 0.0
	for _, r := range runs {
		if v, ok := r.Values[key]; ok {
			mean += v
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean /= n
	for _, r := range runs {
		if v, ok := r.Values[key]; ok {
			d := v - mean
			std += d * d
		}
	}
	std = math.Sqrt(std / n)
	return mean, std
}
