package features

import (
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

func s(lat float64, lvl cache.Level, src, home topology.NodeID) pebs.Sample {
	return pebs.Sample{Latency: lat, Level: lvl, SrcNode: src, HomeNode: home}
}

// vector is the production path for one channel: samples through an
// Accumulator over a 4-node machine, then that channel's Table I vector.
func vector(samples []pebs.Sample, ch topology.Channel, weight float64) Vector {
	acc := NewAccumulator(topology.Uniform(4, 2))
	acc.Add(samples)
	return acc.Vector(ch, weight)
}

func TestLabelString(t *testing.T) {
	if Good.String() != "good" || RMC.String() != "rmc" {
		t.Error("label names wrong")
	}
	if Label(5).String() != "Label(5)" {
		t.Error("unknown label rendering wrong")
	}
}

func TestExtractBasic(t *testing.T) {
	ch := topology.Channel{Src: 0, Dst: 1}
	samples := []pebs.Sample{
		s(600, cache.MEM, 0, 1), // remote on channel
		s(400, cache.MEM, 0, 1), // remote on channel
		s(220, cache.MEM, 0, 0), // local
		s(4, cache.L1, 0, 0),    // cache hit
		s(130, cache.LFB, 0, 1), // LFB
		s(900, cache.MEM, 2, 1), // different source socket: excluded
	}
	v := vector(samples, ch, 1)
	if v[5] != 2 {
		t.Errorf("feature 6 (remote count) = %g, want 2", v[5])
	}
	if v[6] != 500 {
		t.Errorf("feature 7 (avg remote latency) = %g, want 500", v[6])
	}
	if v[7] != 1 || v[8] != 220 {
		t.Errorf("local features = %g/%g, want 1/220", v[7], v[8])
	}
	if v[9] != 5 {
		t.Errorf("feature 10 (total) = %g, want 5 (socket-0 batch)", v[9])
	}
	if v[11] != 1 || v[12] != 130 {
		t.Errorf("LFB features = %g/%g", v[11], v[12])
	}
	// Ratios over the 5-sample batch: above 500 = 1 sample (600).
	if v[1] != 0.2 {
		t.Errorf("ratio above 500 = %g, want 0.2", v[1])
	}
	// above 100: 600,400,220,130 = 4/5
	if v[3] != 0.8 {
		t.Errorf("ratio above 100 = %g, want 0.8", v[3])
	}
	if v[0] != 0 {
		t.Errorf("ratio above 1000 = %g, want 0", v[0])
	}
}

func TestExtractWeightScalesCounts(t *testing.T) {
	ch := topology.Channel{Src: 0, Dst: 1}
	samples := []pebs.Sample{s(600, cache.MEM, 0, 1), s(30, cache.L1, 0, 0)}
	v := vector(samples, ch, 10)
	if v[5] != 10 {
		t.Errorf("weighted remote count = %g, want 10", v[5])
	}
	if v[9] != 20 {
		t.Errorf("weighted total = %g, want 20", v[9])
	}
	// Latency averages must NOT be scaled.
	if v[6] != 600 {
		t.Errorf("avg latency scaled by weight: %g", v[6])
	}
}

func TestExtractEmptyBatch(t *testing.T) {
	v := vector(nil, topology.Channel{Src: 0, Dst: 1}, 1)
	for i, x := range v {
		if x != 0 {
			t.Fatalf("feature %d = %g on empty batch", i, x)
		}
	}
	// Samples from other sockets only.
	v = vector([]pebs.Sample{s(100, cache.MEM, 2, 1)}, topology.Channel{Src: 0, Dst: 1}, 1)
	if v[9] != 0 {
		t.Error("foreign-socket samples leaked into batch")
	}
}

func TestChannelVectors(t *testing.T) {
	m := topology.Uniform(2, 2)
	samples := []pebs.Sample{
		s(600, cache.MEM, 0, 1),
		s(620, cache.MEM, 0, 1),
		s(580, cache.MEM, 0, 1),
		s(300, cache.MEM, 1, 0),
	}
	got := ChannelVectors(m, samples, 1, 2)
	if len(got) != 1 {
		t.Fatalf("got %d channels, want 1 (0->1 only; 1->0 has 1 sample < min 2)", len(got))
	}
	v, ok := got[topology.Channel{Src: 0, Dst: 1}]
	if !ok {
		t.Fatal("channel 0->1 missing")
	}
	if v[5] != 3 {
		t.Errorf("remote count = %g", v[5])
	}
}

func TestCandidatesKeys(t *testing.T) {
	samples := []pebs.Sample{
		s(600, cache.MEM, 0, 1),
		s(4, cache.L1, 0, 0),
		s(12, cache.L2, 0, 0),
		s(40, cache.L3, 0, 0),
		s(130, cache.LFB, 0, 1),
		s(210, cache.MEM, 0, 0),
	}
	c := Candidates(samples, 1)
	checks := map[string]float64{
		"num_l1_hit":      1,
		"num_l2_hit":      1,
		"num_l3_hit":      1,
		"num_lfb":         1,
		"num_dram":        2,
		"num_remote_dram": 1,
		"num_local_dram":  1,
		"num_l3_miss":     3,
		"total_samples":   6,
	}
	for k, want := range checks {
		if c[k] != want {
			t.Errorf("%s = %g, want %g", k, c[k], want)
		}
	}
	if c["avg_latency_remote_dram"] != 600 {
		t.Errorf("avg remote = %g", c["avg_latency_remote_dram"])
	}
	if c["avg_latency_local_dram"] != 210 {
		t.Errorf("avg local = %g", c["avg_latency_local_dram"])
	}
	if c["num_cpus"] != 1 || c["num_nodes"] != 1 {
		t.Errorf("identification stats wrong: %v", c)
	}
	if len(Candidates(nil, 1)) != 0 {
		t.Error("empty batch should produce empty candidates")
	}
}

func TestSelectRelevantKeepsDiscriminative(t *testing.T) {
	// Build three mini-programs where "signal" separates the classes and
	// "noise" does not.
	var runs []LabeledCandidates
	for _, prog := range []string{"sumv", "dotv", "countv"} {
		for i := 0; i < 6; i++ {
			runs = append(runs, LabeledCandidates{
				Program: prog, Mode: Good,
				Values: map[string]float64{
					"signal": 10 + float64(i%3),
					"noise":  50 + float64(i*7%13),
				},
			})
			runs = append(runs, LabeledCandidates{
				Program: prog, Mode: RMC,
				Values: map[string]float64{
					"signal": 100 + float64(i%3),
					"noise":  50 + float64((i*5+3)%13),
				},
			})
		}
	}
	kept := SelectRelevant(runs, 0.8)
	found := map[string]bool{}
	for _, k := range kept {
		found[k] = true
	}
	if !found["signal"] {
		t.Errorf("discriminative feature dropped: kept=%v", kept)
	}
	if found["noise"] {
		t.Errorf("noise feature kept: kept=%v", kept)
	}
}

func TestSelectRelevantNeedsBothClasses(t *testing.T) {
	// A program with only good runs (like bandit) cannot vote.
	runs := []LabeledCandidates{
		{Program: "bandit", Mode: Good, Values: map[string]float64{"x": 1}},
		{Program: "bandit", Mode: Good, Values: map[string]float64{"x": 100}},
	}
	if kept := SelectRelevant(runs, 0.8); len(kept) != 0 {
		t.Errorf("selection from single-class data kept %v", kept)
	}
}

func TestSelectRelevantConstantFeature(t *testing.T) {
	var runs []LabeledCandidates
	for i := 0; i < 4; i++ {
		runs = append(runs,
			LabeledCandidates{Program: "p", Mode: Good, Values: map[string]float64{"const_diff": 1}},
			LabeledCandidates{Program: "p", Mode: RMC, Values: map[string]float64{"const_diff": 2}},
		)
	}
	kept := SelectRelevant(runs, 0.8)
	if len(kept) != 1 || kept[0] != "const_diff" {
		t.Errorf("zero-variance but different means should be kept: %v", kept)
	}
}

func TestNamesComplete(t *testing.T) {
	for i, n := range Names {
		if n == "" {
			t.Errorf("feature %d unnamed", i)
		}
	}
}
