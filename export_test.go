package drbw

import (
	"fmt"
	"sort"

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
// planned its inputs and before the fused pass, told whether the plan's
// bounds came from the index footer (true) or a pre-scan (false). Tests
// use it to check which inputs skip the pre-scan and to mutate a recording
// mid-analysis. It returns a restore function for the previous hook.
func SetTestHookPlanned(f func(footer bool)) (restore func()) {
	prev := testHookPlanned
	testHookPlanned = f
	return func() { testHookPlanned = prev }
}

// AnalyzeTraceRef is the reference analysis every equivalence test
// compares against: the whole recording materialized as one slice, then
// features.ChannelVectors, the tree, diagnose.Timeline and
// diagnose.Analyze, each over all of it. It shares no accumulation code
// with the fused pass. It does not bump the classifier's counters.
func (t *Tool) AnalyzeTraceRef(td *TraceData) (*Report, error) {
	if len(td.Samples) == 0 {
		return nil, fmt.Errorf("drbw: recording has no samples")
	}
	weight := td.Weight
	if weight <= 0 {
		weight = 1
	}
	var samples []pebs.Sample
	for _, r := range td.Samples {
		s, err := fromRecord(r)
		if err != nil {
			return nil, err
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
	rep := newReport(contended, diag, diagnose.Timeline(samples, timelineBuckets, weight), int64(len(samples)))
	rep.Bench, rep.Config = td.Bench, td.Config
	return rep, nil
}
