// Package core is DR-BW's experiment driver: it wires the profiler
// (engine + PEBS collector), the feature extractor, the decision-tree
// classifier and the diagnoser into the pipelines the paper evaluates —
// training-set collection (Table II), classifier training and cross
// validation (Table III, Figure 3), and per-case detection with the
// interleave ground truth (Tables IV, V, VI).
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"drbw/internal/diagnose"
	"drbw/internal/dtree"
	"drbw/internal/engine"
	"drbw/internal/features"
	"drbw/internal/micro"
	"drbw/internal/optimize"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
	"drbw/internal/program"
	"drbw/internal/topology"
)

// DefaultEngineConfig is the simulation fidelity used by the experiments:
// a window long enough to expose cache residency of the friendly inputs.
func DefaultEngineConfig(seed uint64) engine.Config {
	return engine.Config{
		Window:        24576,
		Warmup:        6144,
		ReservoirSize: 2048,
		Seed:          seed,
	}
}

// DefaultCollectorConfig mirrors the paper's sampling setup: period 1/2000,
// PEBS latency threshold, bounded memory, a small per-sample cost.
func DefaultCollectorConfig() pebs.Config {
	return pebs.Config{
		Period:  pebs.DefaultPeriod,
		MaxKept: 120000,
		// A PEBS assist plus buffer drain costs a few hundred nanoseconds;
		// at 2.7 GHz that is on the order of a thousand cycles per sample.
		OverheadCycles: 1200,
	}
}

// TrainingRun is one profiled mini-program run with its extracted features.
type TrainingRun struct {
	Instance micro.Instance
	// Channel is the channel whose feature vector represents the run:
	// features.Accumulator.Busiest, the remote channel with the most
	// MEM/LFB samples (contention, when present, lives there).
	Channel topology.Channel
	Vector  features.Vector
	// Candidates carries the full candidate statistics of the run's source
	// socket batch, for the Table I selection experiment.
	Candidates map[string]float64
	// PeakRemoteUtil is simulator ground truth used only for sanity checks.
	PeakRemoteUtil float64
}

// TrainingData is the collected Table II dataset.
type TrainingData struct {
	Runs    []TrainingRun
	Dataset *dtree.Dataset
}

// Summary counts runs per mini-program and mode, the content of Table II.
func (td *TrainingData) Summary() map[string]map[features.Label]int {
	out := map[string]map[features.Label]int{}
	for _, r := range td.Runs {
		name := baseName(r.Instance.Builder.Name)
		if out[name] == nil {
			out[name] = map[features.Label]int{}
		}
		out[name][r.Instance.Mode]++
	}
	return out
}

func baseName(name string) string {
	for _, b := range []string{"sumv", "dotv", "countv", "bandit"} {
		if len(name) >= len(b) && name[:len(b)] == b {
			return b
		}
	}
	return name
}

// peakRemoteUtil extracts the simulator's worst inter-socket link
// utilization (local controllers excluded: saturating your own node's
// controller is not *remote* contention).
func peakRemoteUtil(m *topology.Machine, res *engine.Result) float64 {
	maxU := 0.0
	for _, ch := range m.RemoteChannels() {
		if u := res.Channel(ch).PeakUtil; u > maxU {
			maxU = u
		}
	}
	return maxU
}

// ParallelForWorker runs fn(i, w) for every i in [0, n) on a bounded pool
// of GOMAXPROCS workers — the fan-out every batch pipeline in this package
// shares. Work is claimed through a single atomic counter rather than a
// channel, so the dispatching goroutine never serializes the pool. Item i
// runs on worker w, where w is in [0, workers) and at most one item runs on
// a given w at a time. Batch consumers key reusable scratch — decode
// buffers, feature accumulators — by w, turning per-item allocations into
// per-worker ones without any locking. fn must write only to its own
// index's and worker's state; ParallelForWorker returns once every call has
// finished.
func ParallelForWorker(n int, fn func(i, worker int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i, w)
			}
		}(w)
	}
	wg.Wait()
}

// CollectTraining profiles every instance of the training set and extracts
// its labeled feature vector. Instances are independent simulations and
// fan out over GOMAXPROCS workers; seeds come from the instances, so the
// result is identical to a serial collection.
func CollectTraining(m *topology.Machine, ecfg engine.Config, set []micro.Instance) (*TrainingData, error) {
	runs := make([]TrainingRun, len(set))
	errs := make([]error, len(set))
	ParallelForLabeledWorker(len(set), "train.collect", func(i, _ int) {
		runs[i], errs[i] = collectOne(m, ecfg, set[i])
	})

	td := &TrainingData{Dataset: &dtree.Dataset{
		FeatureNames: featureNames(),
		ClassNames:   []string{features.Good.String(), features.RMC.String()},
	}}
	for i := range set {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: training instance %d (%s): %w", i, set[i].Builder.Name, errs[i])
		}
		td.Runs = append(td.Runs, runs[i])
		td.Dataset.Examples = append(td.Dataset.Examples, dtree.Example{
			X: runs[i].Vector[:], Y: int(set[i].Mode),
		})
	}
	return td, nil
}

// collectOne profiles one training instance.
func collectOne(m *topology.Machine, ecfg engine.Config, inst micro.Instance) (TrainingRun, error) {
	p, err := inst.Builder.New(m, inst.Cfg)
	if err != nil {
		return TrainingRun{}, err
	}
	ccfg := DefaultCollectorConfig()
	ccfg.Flavor = ecfg.SamplerFlavor
	col := pebs.NewCollector(ccfg, inst.Cfg.Seed+7)
	run := ecfg
	run.Collector = col
	run.Seed = inst.Cfg.Seed + 13
	res, err := p.Run(run)
	if err != nil {
		return TrainingRun{}, err
	}
	samples := col.Samples()
	mergeCollectorStats(col)
	acc := features.NewAccumulator(m)
	acc.Add(samples)
	ch := acc.Busiest()

	// Candidate stats over the channel's source-socket batch.
	var batch []pebs.Sample
	for _, s := range samples {
		if s.SrcNode == ch.Src {
			batch = append(batch, s)
		}
	}
	return TrainingRun{
		Instance:       inst,
		Channel:        ch,
		Vector:         acc.Vector(ch, col.Weight()),
		Candidates:     features.Candidates(batch, col.Weight()),
		PeakRemoteUtil: peakRemoteUtil(m, res),
	}, nil
}

func featureNames() []string {
	out := make([]string, features.NumFeatures)
	copy(out, features.Names[:])
	return out
}

// DefaultTreeConfig matches the paper's compact tree (Figure 3 has depth 3).
func DefaultTreeConfig() dtree.Config {
	return dtree.Config{MaxDepth: 4, MinLeaf: 3}
}

// TrainClassifier fits the decision tree on the collected data.
func TrainClassifier(td *TrainingData, cfg dtree.Config) (*dtree.Tree, error) {
	return dtree.Train(td.Dataset, cfg)
}

// CrossValidate runs the paper's stratified 10-fold validation.
func CrossValidate(td *TrainingData, cfg dtree.Config) (*dtree.ConfusionMatrix, error) {
	return dtree.CrossValidate(td.Dataset, cfg, 10, 42)
}

// SelectionExperiment reproduces the Table I feature-selection filter from
// the collected candidate statistics.
func (td *TrainingData) SelectionExperiment() []string {
	var runs []features.LabeledCandidates
	for _, r := range td.Runs {
		runs = append(runs, features.LabeledCandidates{
			Program: baseName(r.Instance.Builder.Name),
			Mode:    r.Instance.Mode,
			Values:  r.Candidates,
		})
	}
	return features.SelectRelevant(runs, 0)
}

// Detector applies a trained classifier to benchmark runs.
type Detector struct {
	Tree *dtree.Tree
	// MinSamples is the minimum per-channel sample count needed to classify
	// a channel; sparser channels carry no usable signal.
	MinSamples int
	// Ecfg is the engine configuration for detection runs.
	Ecfg engine.Config
	// Ccfg configures the per-run PEBS collector; its Flavor is overridden
	// by Ecfg.SamplerFlavor at run time.
	Ccfg pebs.Config
}

// NewDetector builds a detector with the default thresholds.
func NewDetector(tree *dtree.Tree, ecfg engine.Config) *Detector {
	return &Detector{Tree: tree, MinSamples: 25, Ecfg: ecfg, Ccfg: DefaultCollectorConfig()}
}

// CaseResult is the outcome of one benchmark case (input × Tt-Nn config).
type CaseResult struct {
	Bench    string
	Cfg      program.Config
	Detected bool // classifier says rmc (rule 1 of Section VII-A)
	// Contended lists the channels classified rmc.
	Contended []topology.Channel
	// Actual is the interleave ground truth; valid when Evaluated.
	Actual    bool
	Evaluated bool
	// InterleaveSpeedup is the ground-truth probe's speedup.
	InterleaveSpeedup float64
}

// Detection is the single-pass outcome of profiling one case: the
// classification verdict, its diagnosis and timeline, plus everything later
// pipeline stages need — the simulated program, the retained samples and
// the collector weight — so evaluation, reporting and the placement search
// never re-run the simulation.
type Detection struct {
	CaseResult
	// Program is the simulated program the samples came from.
	Program *program.Program
	// Samples are the collector's retained samples in emission order,
	// scaled by Weight.
	Samples []pebs.Sample
	// Weight scales kept samples to true counts (1 unless the collector hit
	// its memory bound).
	Weight float64
	// Timeline buckets the run's remote pressure over time.
	Timeline []diagnose.Bucket

	diagnosis *diagnose.Report // nil when nothing was detected
	builder   program.Builder
}

// Builder returns the builder that materialized the detection's program,
// so downstream stages (the placement search) can rebuild fresh instances
// of the same case for candidate runs.
func (dn *Detection) Builder() program.Builder { return dn.builder }

// Detect runs one case with profiling and classifies every remote channel;
// the case is rmc if at least one channel is (the paper's rule 1). This is
// the only simulation of the case the pipeline performs: the returned
// Detection carries the diagnosis and timeline with the run's program and
// samples.
func (d *Detector) Detect(b program.Builder, m *topology.Machine, cfg program.Config) (*Detection, error) {
	return d.detect(b, m, cfg, NewSweep(m))
}

// detect is Detect on a reusable sweep; the batch pipeline passes one per
// worker so a sweep allocates feature-extraction state per worker, not per
// case. The sweep runs over the retained samples with the program's live
// heap as the object table: the accumulation an offline analysis of the
// recording takes.
func (d *Detector) detect(b program.Builder, m *topology.Machine, cfg program.Config, sw *Sweep) (*Detection, error) {
	p, samples, weight, err := Profile(b, m, cfg, d.Ecfg, d.Ccfg)
	if err != nil {
		return nil, err
	}
	table, err := profiledata.NewTable(p.Heap.Live())
	if err != nil {
		return nil, err
	}
	sw.Reset(table, weight)
	if err := sw.Add(samples); err != nil {
		return nil, err
	}
	dn := &Detection{
		CaseResult: CaseResult{Bench: b.Name, Cfg: cfg},
		Program:    p,
		Samples:    samples,
		Weight:     weight,
		builder:    b,
	}
	dn.Contended, dn.diagnosis, dn.Timeline = sw.Finish(d)
	dn.Detected = len(dn.Contended) > 0
	return dn, nil
}

// Profile runs one case under a PEBS collector configured by ccfg, its
// Flavor taken from ecfg.SamplerFlavor, and returns the program, the
// collector's retained samples in emission order and their weight. The
// engine reserves the sample buffer once, so the run allocates it once; the
// caller owns the slice. The collector and run seeds derive from the case
// seed, so every profiling run of a case — live detection, a recording, the
// placement search's own profile — sees the same samples.
func Profile(b program.Builder, m *topology.Machine, cfg program.Config, ecfg engine.Config, ccfg pebs.Config) (*program.Program, []pebs.Sample, float64, error) {
	p, err := b.New(m, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	ccfg.Flavor = ecfg.SamplerFlavor
	col := pebs.NewCollector(ccfg, cfg.Seed+101)
	ecfg.Collector = col
	ecfg.Seed = cfg.Seed + 103
	if _, err := p.Run(ecfg); err != nil {
		return nil, nil, 0, err
	}
	mergeCollectorStats(col)
	return p, col.Samples(), col.Weight(), nil
}

// Classify runs the tree over every channel vector acc yields at weight
// and returns the contended (rmc) channels in (Src, Dst) order — nil when
// none is. It is the one place a verdict is rendered: Sweep.Finish calls
// it for live detection and every offline analysis alike, and it keeps the
// dtree.predict.* and detect.* counters.
func (d *Detector) Classify(acc *features.Accumulator, weight float64) []topology.Channel {
	var contended []topology.Channel
	for ch, vec := range acc.Vectors(weight, d.MinSamples) {
		v := vec
		label := features.Label(d.Tree.Predict(v[:]))
		countPrediction(label)
		if label == features.RMC {
			contended = append(contended, ch)
		}
	}
	sort.Slice(contended, func(i, j int) bool {
		a, b := contended[i], contended[j]
		return a.Src < b.Src || (a.Src == b.Src && a.Dst < b.Dst)
	})
	countDetectCase(len(contended) > 0)
	return contended
}

// Diagnose returns the attribution of the contended channels' samples to
// data objects that detection computed in its sweep. It returns an empty
// report when nothing was detected.
func (dn *Detection) Diagnose() *diagnose.Report {
	if dn.diagnosis == nil {
		return &diagnose.Report{}
	}
	return dn.diagnosis
}

// GroundTruth runs the paper's probe (whole-program interleave, ≥10%
// speedup ⇒ actually contended) and records the verdict in the detection.
// The probe simulates the interleaved variant; the profiled run itself is
// not repeated.
func (d *Detector) GroundTruth(dn *Detection) error {
	m := dn.Program.Machine
	ecfg := d.Ecfg
	ecfg.Seed = dn.Cfg.Seed + 211
	actual, comp, err := optimize.ActualRMC(dn.builder, m, dn.Cfg, ecfg)
	if err != nil {
		return err
	}
	dn.Actual = actual
	dn.Evaluated = true
	dn.InterleaveSpeedup = comp.Speedup()
	return nil
}

// Evaluate is Detect plus GroundTruth: one profiled simulation, then the
// interleave probe.
func (d *Detector) Evaluate(b program.Builder, m *topology.Machine, cfg program.Config) (*Detection, error) {
	dn, err := d.Detect(b, m, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.GroundTruth(dn); err != nil {
		return nil, err
	}
	return dn, nil
}

// BenchmarkSummary aggregates one benchmark's cases (a Table V row).
type BenchmarkSummary struct {
	Name     string
	Cases    int
	Actual   int // ground-truth rmc cases
	Detected int // classifier rmc cases
	// Results carries the per-case detail.
	Results []CaseResult
}

// Class applies the paper's rule 2: a benchmark is rmc if any case is.
func (s BenchmarkSummary) Class() features.Label {
	if s.Detected > 0 {
		return features.RMC
	}
	return features.Good
}

// CaseStats holds the Table VI accuracy metrics.
type CaseStats struct {
	Correctness float64
	FPR         float64
	FNR         float64
}

// AccuracyMatrix pools per-case outcomes into the paper's Table VI
// confusion matrix (positive class: rmc).
func AccuracyMatrix(sums []BenchmarkSummary) *dtree.ConfusionMatrix {
	cm := dtree.NewConfusionMatrix([]string{"good", "rmc"})
	for _, s := range sums {
		for _, r := range s.Results {
			a, p := 0, 0
			if r.Actual {
				a = 1
			}
			if r.Detected {
				p = 1
			}
			cm.Add(a, p)
		}
	}
	return cm
}
