package drbw

import (
	"fmt"
	"math"
	"sort"

	"drbw/internal/core"
	"drbw/internal/diagnose"
	"drbw/internal/features"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
	"drbw/internal/topology"
)

// SetCollectorMaxKept shrinks the detector's per-run sample cap so tests
// can force the collector's reservoir to overflow (Weight > 1) without a
// full-length run. It returns a restore function for the previous cap.
func SetCollectorMaxKept(t *Tool, n int) (restore func()) {
	prev := t.detector.Ccfg.MaxKept
	t.detector.Ccfg.MaxKept = n
	return func() { t.detector.Ccfg.MaxKept = prev }
}

// SetTestHookPlanned installs a hook that runs after an analysis has
// planned its inputs and before the fused pass, told whether the pass is
// checked against index-footer bounds. Tests use it to check which inputs
// are footer-checked and to mutate a recording mid-analysis. It returns a
// restore function for the previous hook.
func SetTestHookPlanned(f func(footer bool)) (restore func()) {
	prev := testHookPlanned
	testHookPlanned = f
	return func() { testHookPlanned = prev }
}

// CSVCutTargets returns the byte offsets a pool plan aims its cut points
// at when it splits CSV data rows spanning [start, size) at the current
// pool width, computed as csvCuts computes them. Each cut lands just after
// the first '\n' at or after its target.
func CSVCutTargets(start, size int64) []int64 {
	var targets []int64
	for n, k := csvRanges(size-start), 1; k < n; k++ {
		targets = append(targets, start+int64(k)*(size-start)/int64(n))
	}
	return targets
}

// ClassifiedChannels counts the channels of a recording whose samples
// clear the detector's MinSamples gate: the channels one analysis of it
// classifies.
func ClassifiedChannels(t *Tool, td *TraceData) (int, error) {
	samples, weight, err := td.samples()
	if err != nil {
		return 0, err
	}
	return len(features.ChannelVectors(t.machine, samples, weight, t.detector.MinSamples)), nil
}

// AnalyzeTraceRef is the reference analysis every equivalence test
// compares against: the whole recording materialized as one slice, then
// features.ChannelVectors, the tree, refTimeline and diagnose.Analyze,
// each over all of it. It shares no accumulation code with the fused pass.
// It does not bump the classifier's counters.
func (t *Tool) AnalyzeTraceRef(td *TraceData) (*Report, error) {
	if len(td.Samples) == 0 {
		return nil, fmt.Errorf("drbw: recording has no samples")
	}
	weight := td.Weight
	if weight <= 0 {
		weight = 1
	}
	var samples []pebs.Sample
	for i, r := range td.Samples {
		s, err := fromRecord(r)
		if err != nil {
			return nil, err
		}
		if err := pebs.Check(&s); err != nil {
			return nil, fmt.Errorf("drbw: sample %d: %w", i, err)
		}
		if s.SrcNode < 0 || int(s.SrcNode) >= t.machine.Nodes() ||
			s.HomeNode < 0 || int(s.HomeNode) >= t.machine.Nodes() {
			return nil, fmt.Errorf("drbw: sample references node outside the %d-node machine", t.machine.Nodes())
		}
		samples = append(samples, s)
	}

	var contended []topology.Channel
	for ch, vec := range features.ChannelVectors(t.machine, samples, weight, t.detector.MinSamples) {
		v := vec
		if features.Label(t.detector.Tree.Predict(v[:])) == features.RMC {
			contended = append(contended, ch)
		}
	}
	sort.Slice(contended, func(i, j int) bool {
		return contended[i].Src < contended[j].Src ||
			(contended[i].Src == contended[j].Src && contended[i].Dst < contended[j].Dst)
	})
	var diag *diagnose.Report
	if len(contended) > 0 {
		table, err := profiledata.NewTable(td.internalObjects())
		if err != nil {
			return nil, err
		}
		diag = diagnose.Analyze(table, samples, contended, weight)
	}
	rep := newReport(contended, diag, refTimeline(samples, core.TimelineBuckets, weight), int64(len(samples)))
	rep.Bench, rep.Config = td.Bench, td.Config
	return rep, nil
}

// refTimeline is the report timeline computed naively: one loop finds the
// time range, one loop buckets the remote-DRAM samples into n equal slices
// of it. A zero-width range is widened to one cycle. Latency mass is the
// integer sum of whole-cycle latencies, the exact sum the reports are
// defined by.
func refTimeline(samples []pebs.Sample, n int, weight float64) []diagnose.Bucket {
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		if s.Time < minT {
			minT = s.Time
		}
		if s.Time > maxT {
			maxT = s.Time
		}
	}
	if maxT <= minT {
		maxT = minT + 1
	}
	span := maxT - minT
	counts := make([]int, n)
	mass := make([]uint64, n)
	for _, s := range samples {
		if !s.RemoteDRAM() {
			continue
		}
		i := min(max(int(float64(n)*(s.Time-minT)/span), 0), n-1)
		counts[i]++
		mass[i] += uint64(s.Latency)
	}
	out := make([]diagnose.Bucket, n)
	for i := range out {
		out[i].Start = minT + span*float64(i)/float64(n)
		out[i].End = minT + span*float64(i+1)/float64(n)
		out[i].RemoteSamples = float64(counts[i]) * weight
		if counts[i] > 0 {
			out[i].AvgRemoteLatency = float64(mass[i]) / float64(counts[i])
		}
	}
	return out
}
