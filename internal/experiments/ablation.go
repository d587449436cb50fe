package experiments

import (
	"fmt"

	"drbw/internal/cache"
	"drbw/internal/core"
	"drbw/internal/dtree"
	"drbw/internal/features"
	"drbw/internal/micro"
	"drbw/internal/optimize"
	"drbw/internal/pebs"
	"drbw/internal/program"
	"drbw/internal/workloads"
)

// maskDataset projects the training set onto a feature subset (1-based
// Table I indices).
func maskDataset(ds *dtree.Dataset, keep []int) *dtree.Dataset {
	out := &dtree.Dataset{ClassNames: ds.ClassNames}
	for _, k := range keep {
		out.FeatureNames = append(out.FeatureNames, ds.FeatureNames[k-1])
	}
	for _, e := range ds.Examples {
		x := make([]float64, len(keep))
		for i, k := range keep {
			x[i] = e.X[k-1]
		}
		out.Examples = append(out.Examples, dtree.Example{X: x, Y: e.Y})
	}
	return out
}

// AblationFeatures compares classifier accuracy across feature subsets:
// the full Table I vector, latency ratios only, remote-DRAM features only,
// and counts only.
func (c *Context) AblationFeatures() (string, error) {
	sets := []struct {
		name string
		keep []int
	}{
		{"all 13 (Table I)", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}},
		{"latency ratios (1-5)", []int{1, 2, 3, 4, 5}},
		{"remote count+latency (6-7)", []int{6, 7}},
		{"remote count only (6)", []int{6}},
		{"counts only (6,8,10,12)", []int{6, 8, 10, 12}},
	}
	t := &table{header: []string{"feature set", "10-fold CV accuracy"}}
	for _, s := range sets {
		ds := maskDataset(c.Training.Dataset, s.keep)
		cm, err := dtree.CrossValidate(ds, core.DefaultTreeConfig(), 10, 42)
		if err != nil {
			return "", err
		}
		t.add(s.name, pct(cm.Accuracy()))
	}
	return "Ablation — feature sets\n[expected: count-only features cannot separate bandit from contention]\n\n" + t.String(), nil
}

// AblationTreeDepth sweeps the tree depth limit.
func (c *Context) AblationTreeDepth() (string, error) {
	t := &table{header: []string{"max depth", "CV accuracy", "leaves"}}
	for _, d := range []int{1, 2, 3, 4, 6, 8} {
		cfg := dtree.Config{MaxDepth: d, MinLeaf: 3}
		cm, err := dtree.CrossValidate(c.Training.Dataset, cfg, 10, 42)
		if err != nil {
			return "", err
		}
		tree, err := dtree.Train(c.Training.Dataset, cfg)
		if err != nil {
			return "", err
		}
		t.add(itoa(d), pct(cm.Accuracy()), itoa(tree.Leaves()))
	}
	return "Ablation — decision-tree depth\n\n" + t.String(), nil
}

// AblationSamplingPeriod re-collects a reduced training set at several
// sampling periods and reports CV accuracy: sparser sampling loses signal.
func (c *Context) AblationSamplingPeriod() (string, error) {
	var reduced []micro.Instance
	set := micro.TrainingSet()
	for i := 0; i < len(set); i += 8 {
		reduced = append(reduced, set[i])
	}
	t := &table{header: []string{"period (1/n accesses)", "CV accuracy", "avg samples/run"}}
	for _, period := range []int{500, 2000, 8000, 32000} {
		td := &dtree.Dataset{
			FeatureNames: features.Names[:],
			ClassNames:   []string{"good", "rmc"},
		}
		var totalSamples int
		for _, inst := range reduced {
			p, err := inst.Builder.New(c.Machine, inst.Cfg)
			if err != nil {
				return "", err
			}
			col := pebs.NewCollector(pebs.Config{Period: period, MaxKept: 120000}, inst.Cfg.Seed+3)
			run := c.Ecfg
			run.Collector = col
			run.Seed = inst.Cfg.Seed + 5
			if _, err := p.Run(run); err != nil {
				return "", err
			}
			totalSamples += col.Total()
			acc := features.NewAccumulator(c.Machine)
			acc.Add(col.Samples())
			vec := acc.Vector(acc.Busiest(), col.Weight())
			td.Examples = append(td.Examples, dtree.Example{X: vec[:], Y: int(inst.Mode)})
		}
		cm, err := dtree.CrossValidate(td, core.DefaultTreeConfig(), 6, 42)
		if err != nil {
			return "", err
		}
		t.add(itoa(period), pct(cm.Accuracy()), itoa(totalSamples/len(reduced)))
	}
	return "Ablation — PEBS sampling period (paper uses 1/2000)\n\n" + t.String(), nil
}

// AblationChannelGranularity compares the paper's per-channel detection
// against whole-run classification on a benchmark subset: whole-run
// vectors blur the contended channel's signal with idle sockets' samples.
func (c *Context) AblationChannelGranularity() (string, error) {
	subset := []struct {
		name, input string
		threads     int
		nodes       int
	}{
		{"Streamcluster", "native", 32, 4},
		{"AMG2006", "30x30x30", 64, 4},
		{"NW", "large", 32, 4},
		{"Blackscholes", "native", 64, 4},
		{"Swaptions", "native", 32, 4},
		{"CG", "C", 32, 4},
		{"Fluidanimate", "native", 16, 4},
		{"SP", "C", 64, 4},
	}
	t := &table{header: []string{"case", "actual", "per-channel", "whole-run"}}
	agreeCh, agreeWhole := 0, 0
	for i, s := range subset {
		e, ok := workloads.ByName(s.name)
		if !ok {
			return "", fmt.Errorf("experiments: missing %s", s.name)
		}
		cfg := program.Config{Threads: s.threads, Nodes: s.nodes, Input: s.input, Seed: uint64(81000 + i*41)}
		dn, err := c.Detector.Detect(e.Builder, c.Machine, cfg)
		if err != nil {
			return "", err
		}
		// Whole-run vector: all samples against the busiest channel.
		acc := features.NewAccumulator(c.Machine)
		acc.Add(dn.Samples)
		vec := acc.Vector(acc.Busiest(), dn.Weight)
		whole := c.Tree.Predict(vec[:]) == 1

		ecfg := c.Ecfg
		ecfg.Seed = cfg.Seed + 211
		actual, _, err := optimize.ActualRMC(e.Builder, c.Machine, cfg, ecfg)
		if err != nil {
			return "", err
		}
		if dn.Detected == actual {
			agreeCh++
		}
		if whole == actual {
			agreeWhole++
		}
		t.add(fmt.Sprintf("%s/%s %s", s.name, s.input, cfg.Label()),
			fmt.Sprintf("%v", actual), fmt.Sprintf("%v", dn.Detected), fmt.Sprintf("%v", whole))
	}
	out := "Ablation — per-channel vs whole-run classification\n\n" + t.String() +
		fmt.Sprintf("\nagreement with ground truth: per-channel %d/%d, whole-run %d/%d\n",
			agreeCh, len(subset), agreeWhole, len(subset))
	return out, nil
}

// AblationPrefetcher quantifies the paper's motivating observation about
// hardware prefetching (Section II-B): a prefetcher converts demand DRAM
// hits into line-fill-buffer hits, shrinking the remote-access *count* a
// heuristic would rely on, while the bandwidth — and therefore the latency
// inflation under contention — is unchanged. The classifier's verdict must
// survive the prefetcher being switched on or off.
func (c *Context) AblationPrefetcher() (string, error) {
	cases := []struct {
		name, input string
		threads     int
	}{
		// SP streams one clean sequential pattern per thread: the stream
		// prefetcher locks on and hides most demand DRAM hits.
		{"SP", "C", 64},
		// Streamcluster's block is read at random: unprefetchable, counts
		// must not move.
		{"Streamcluster", "native", 64},
	}
	t := &table{header: []string{"case", "prefetch", "remote MEM samples", "LFB samples", "detected"}}
	for i, cs := range cases {
		e, ok := workloads.ByName(cs.name)
		if !ok {
			return "", fmt.Errorf("experiments: missing %s", cs.name)
		}
		for _, pf := range []bool{true, false} {
			cfg := program.Config{Threads: cs.threads, Nodes: 4, Input: cs.input, Seed: uint64(87000 + i*13)}
			p, err := e.Builder.New(c.Machine, cfg)
			if err != nil {
				return "", err
			}
			if !pf {
				cc := cache.DefaultConfig()
				cc.PrefetchDepth = -1
				p.CacheConfig = cc
			}
			col := pebs.NewCollector(core.DefaultCollectorConfig(), cfg.Seed+3)
			run := c.Ecfg
			run.Collector = col
			run.Seed = cfg.Seed + 5
			if _, err := p.Run(run); err != nil {
				return "", err
			}
			samples := col.Samples()
			var remoteMEM, lfb float64
			for _, s := range samples {
				if s.RemoteDRAM() {
					remoteMEM += col.Weight()
				}
				if s.Level == cache.LFB {
					lfb += col.Weight()
				}
			}
			detected := false
			for ch, vec := range features.ChannelVectors(c.Machine, samples, col.Weight(), c.Detector.MinSamples) {
				_ = ch
				v := vec
				if c.Tree.Predict(v[:]) == 1 {
					detected = true
				}
			}
			t.add(fmt.Sprintf("%s/%s", cs.name, cs.input),
				fmt.Sprintf("%v", pf), f0(remoteMEM), f0(lfb), fmt.Sprintf("%v", detected))
		}
	}
	return "Ablation — hardware prefetcher on/off\n" +
		"[prefetching shifts DRAM samples into the LFB, shrinking raw remote counts;\n detection must not flip]\n\n" + t.String(), nil
}

// AblationLatencyModel re-trains with different queueing-coefficient
// settings in the engine's latency model and reports separability.
func (c *Context) AblationLatencyModel() (string, error) {
	var reduced []micro.Instance
	set := micro.TrainingSet()
	for i := 0; i < len(set); i += 8 {
		reduced = append(reduced, set[i])
	}
	t := &table{header: []string{"queue coefficient", "CV accuracy"}}
	for _, k := range []float64{0.25, 0.5, 1, 2} {
		ecfg := c.Ecfg
		ecfg.QueueCoeff = k
		td, err := core.CollectTraining(c.Machine, ecfg, reduced)
		if err != nil {
			return "", err
		}
		cm, err := dtree.CrossValidate(td.Dataset, core.DefaultTreeConfig(), 6, 42)
		if err != nil {
			return "", err
		}
		t.add(fmt.Sprintf("%.2f", k), pct(cm.Accuracy()))
	}
	return "Ablation — latency-inflation model (engine QueueCoeff)\n" +
		"[weaker inflation shrinks the latency gap the classifier learns from]\n\n" + t.String(), nil
}
