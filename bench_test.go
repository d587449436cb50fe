package drbw_test

// The benchmark harness: one testing.B per table and figure of the paper,
// backed by internal/experiments (the same code cmd/drbw-bench runs in
// full). Benchmarks run the quick variants so `go test -bench=.` completes
// in minutes; regenerate the full sweeps with `go run ./cmd/drbw-bench`.
//
// Reported custom metrics carry the experiment's headline number (accuracy,
// speedup, CF, overhead) so a bench run doubles as a regression check on
// the reproduced results.

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/core"
	"drbw/internal/diagnose"
	"drbw/internal/dtree"
	"drbw/internal/engine"
	"drbw/internal/experiments"
	"drbw/internal/memsim"
	"drbw/internal/micro"
	"drbw/internal/optimize"
	"drbw/internal/pebs"
	"drbw/internal/program"
	"drbw/internal/search"
	"drbw/internal/topology"
	"drbw/internal/trace"
	"drbw/internal/workloads"
)

var (
	ctxOnce sync.Once
	ctx     *experiments.Context
	ctxErr  error
)

func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	ctxOnce.Do(func() {
		ctx, ctxErr = experiments.NewContext(true, 1)
	})
	if ctxErr != nil {
		b.Fatal(ctxErr)
	}
	return ctx
}

// --- Experiment benchmarks: one per table/figure ---

func BenchmarkTableI_FeatureSelection(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.TableI()
	}
}

func BenchmarkTableII_TrainingCollection(b *testing.B) {
	// Collects a 12-run slice of the Table II training set per iteration.
	set := micro.TrainingSet()
	var reduced []micro.Instance
	for i := 0; i < len(set); i += 16 {
		reduced = append(reduced, set[i])
	}
	m := topology.XeonE5_4650()
	ecfg := engine.Config{Window: 8192, Warmup: 4096, ReservoirSize: 1024, Seed: 11}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		td, err := core.CollectTraining(m, ecfg, reduced)
		if err != nil {
			b.Fatal(err)
		}
		if len(td.Runs) != len(reduced) {
			b.Fatalf("collected %d runs", len(td.Runs))
		}
	}
	b.ReportMetric(float64(len(reduced)), "runs/op")
}

func BenchmarkTableIII_CrossValidation(b *testing.B) {
	c := benchContext(b)
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm, err := c.CrossValidate()
		if err != nil {
			b.Fatal(err)
		}
		acc = cm.Accuracy()
	}
	b.ReportMetric(100*acc, "cv-accuracy-%")
}

func BenchmarkFig3_TreeTraining(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := dtree.Train(c.Training.Dataset, dtree.Config{MaxDepth: 4, MinLeaf: 3})
		if err != nil {
			b.Fatal(err)
		}
		if tree.Leaves() == 0 {
			b.Fatal("empty tree")
		}
	}
}

func BenchmarkTableIV_V_VI_Evaluation(b *testing.B) {
	c := benchContext(b)
	var correctness float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := c.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		_, stats := c.TableVI(ev)
		correctness = stats.Correctness
		if stats.FNR > 0.05 {
			b.Fatalf("false negative rate %.1f%%; the paper reports 0%%", 100*stats.FNR)
		}
	}
	b.ReportMetric(100*correctness, "correctness-%")
}

// BenchmarkBatchEvaluation pits the detector's parallel batch API against
// a serial loop, at GOMAXPROCS=1, over the paper's eight standard
// configurations. The speedup-x metric is the wall-clock ratio of one
// serial sweep to one batch sweep; on a multi-core host it should track
// GOMAXPROCS up to the case count.
func BenchmarkBatchEvaluation(b *testing.B) {
	c := benchContext(b)
	e, ok := workloads.ByName("Streamcluster")
	if !ok {
		b.Fatal("missing Streamcluster")
	}
	var jobs []core.BatchJob
	for i, cfg := range program.StandardConfigs() {
		cc := cfg
		cc.Input = "native"
		cc.Seed = uint64(120000 + i*7)
		jobs = append(jobs, core.BatchJob{Builder: e.Builder, Cfg: cc})
	}
	// serialSweep runs the cases one after another at GOMAXPROCS=1, so
	// no run's window fans out either, and restores GOMAXPROCS.
	serialSweep := func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for _, j := range jobs {
			if _, err := c.Detector.Evaluate(j.Builder, c.Machine, j.Cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	parallelSweep := func() {
		errs := make([]error, len(jobs))
		c.Detector.EvaluateAll(c.Machine, jobs, func(i int, _ *core.Detection, err error) { errs[i] = err })
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serialSweep()
		}
		b.ReportMetric(float64(len(jobs)), "cases/op")
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parallelSweep()
		}
		b.StopTimer()
		start := time.Now()
		serialSweep()
		serialD := time.Since(start)
		start = time.Now()
		parallelSweep()
		parallelD := time.Since(start)
		b.ReportMetric(float64(len(jobs)), "cases/op")
		b.ReportMetric(serialD.Seconds()/parallelD.Seconds(), "speedup-x")
	})
}

func BenchmarkTableVII_ProfilingOverhead(b *testing.B) {
	c := benchContext(b)
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, a, err := c.TableVII()
		if err != nil {
			b.Fatal(err)
		}
		avg = a
	}
	b.ReportMetric(100*avg, "avg-overhead-%")
}

func BenchmarkFig4_ContributionFractions(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_AMGPhases(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_IRSmk(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_Streamcluster(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_LULESH(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCaseStudySP(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SPStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCaseStudyBlackscholes(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BlackscholesStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineStudy(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BaselineStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLLCStudy(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LLCStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md section 5) ---

func BenchmarkAblationFeatures(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AblationFeatures(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTreeDepth(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AblationTreeDepth(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSamplingPeriod(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AblationSamplingPeriod(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationChannelGranularity(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AblationChannelGranularity(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPrefetcher(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AblationPrefetcher(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLatencyModel(b *testing.B) {
	c := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AblationLatencyModel(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkCacheHierarchyAccess(b *testing.B) {
	m := topology.XeonE5_4650()
	h, err := cache.NewHierarchy(m, cache.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(topology.CPUID(i&31), uint64(i)*64)
	}
}

func BenchmarkHeapLookup(b *testing.B) {
	as := memsim.NewAddressSpace(topology.XeonE5_4650())
	h := alloc.NewHeap(as, 0x10000000)
	var addrs []uint64
	for i := 0; i < 256; i++ {
		id, err := h.Malloc("o", 1<<20, alloc.Site{Func: "f"}, memsim.BindTo(0))
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, h.Object(id).Base+512)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := h.Lookup(addrs[i&255]); !ok {
			b.Fatal("lookup miss")
		}
	}
}

// BenchmarkEngineContendedRun times one full contended simulation at three
// GOMAXPROCS settings: workers=1 is the exact serial interleave (the
// historical number and the allocation gate's subject), workers=2 always
// takes the parallel window path regardless of host core count, and
// workers=max keeps the host's GOMAXPROCS. All three produce bit-identical
// Results; only wall clock may differ. scripts/bench.sh derives
// window_speedup from 1 vs max.
func BenchmarkEngineContendedRun(b *testing.B) {
	m := topology.XeonE5_4650()
	run := func(b *testing.B, procs int) {
		setProcs(b, procs)
		bld := micro.Sumv(micro.BigCentralized, 0)
		cfg := program.Config{Threads: 32, Nodes: 4, Input: "default", Seed: 3}
		ecfg := engine.Config{Window: 8192, Warmup: 2048, ReservoirSize: 512, Seed: 3}
		once := func() {
			p, err := bld.New(m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Run(ecfg); err != nil {
				b.Fatal(err)
			}
		}
		// One untimed run fills the hierarchy pool, so allocs/op is the
		// steady-state count even at -benchtime 1x.
		once()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			once()
		}
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=2", func(b *testing.B) { run(b, 2) })
	b.Run("workers=max", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkProfile times one profiled run of Streamcluster T32-N4, the
// simulation behind live detection and recording, and reports its sample
// count and allocated bytes per kept sample. The engine reserves the
// collector's buffer once and the collector hands it over without a copy,
// so B/sample is the buffer's own 72 B plus the simulation's fixed cost;
// scripts/bench.sh gates it via MAX_PROFILE_BYTES_PER_SAMPLE, which trips
// if per-append regrowth or a defensive copy comes back. The ratio does
// not depend on the core count.
func BenchmarkProfile(b *testing.B) {
	m := topology.XeonE5_4650()
	sc, ok := workloads.ByName("Streamcluster")
	if !ok {
		b.Fatal("Streamcluster missing")
	}
	cfg := program.Config{Threads: 32, Nodes: 4, Input: "native", Seed: 1}
	ecfg := core.DefaultEngineConfig(1)
	// One untimed run fills the simulator's scratch pools, so B/sample is
	// the steady-state cost even at -benchtime 1x.
	if _, _, _, err := core.Profile(sc.Builder, m, cfg, ecfg, core.DefaultCollectorConfig()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	samples := 0
	for i := 0; i < b.N; i++ {
		_, s, _, err := core.Profile(sc.Builder, m, cfg, ecfg, core.DefaultCollectorConfig())
		if err != nil {
			b.Fatal(err)
		}
		samples += len(s)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if samples == 0 {
		b.Fatal("profile kept no samples")
	}
	b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(samples), "B/sample")
}

// BenchmarkOptimizerSearch times the closed-loop placement search on a
// two-hot-object contended case (16 candidate placements) at three
// settings: serial exhaustive (every candidate simulated to completion,
// one at a time at GOMAXPROCS=1 — the naive baseline), parallel
// exhaustive (same work over the worker pool), and pruned (the default:
// the analytic frontier cut, in parallel). All three choose the same
// placement; scripts/bench.sh gates serial/pruned wall clock via
// MIN_OPTIMIZER_SPEEDUP on hosts with >= 4 cores.
func BenchmarkOptimizerSearch(b *testing.B) {
	m := topology.XeonE5_4650()
	bld := micro.Dotv(micro.BigCentralized, 0)
	cfg := program.Config{Threads: 32, Nodes: 4, Input: "default", Seed: 71}
	ecfg := engine.Config{Window: 2048, Warmup: 512, ReservoirSize: 256, Seed: 21}

	// Profile once; every search variant reuses the same detection state,
	// so the benchmark isolates the search itself.
	p, err := bld.New(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	col := pebs.NewCollector(core.DefaultCollectorConfig(), 72)
	prof := ecfg
	prof.Collector = col
	prof.Seed = 73
	if _, err := p.Run(prof); err != nil {
		b.Fatal(err)
	}
	samples := col.Samples()
	in := search.Input{
		Builder: bld, Machine: m, Cfg: cfg, Samples: samples,
		Report: diagnose.Analyze(p.Heap, samples, floorContended(m, samples), col.Weight()),
	}

	var bestKey string
	run := func(b *testing.B, scfg search.Config) {
		b.ReportAllocs()
		var res *search.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = search.Run(in, ecfg, scfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Best == nil {
				b.Fatal("search found no placement")
			}
		}
		b.StopTimer()
		if bestKey == "" {
			bestKey = res.Best.Candidate.Key()
		} else if got := res.Best.Candidate.Key(); got != bestKey {
			b.Fatalf("variants disagree on the placement: %q vs %q", got, bestKey)
		}
		b.ReportMetric(res.Speedup(), "placement-speedup-x")
		b.ReportMetric(float64(res.Explored), "explored/op")
	}
	b.Run("serial", func(b *testing.B) {
		setProcs(b, 1)
		run(b, search.Config{Frontier: -1})
	})
	b.Run("parallel", func(b *testing.B) {
		run(b, search.Config{Frontier: -1})
	})
	b.Run("pruned", func(b *testing.B) {
		run(b, search.Config{})
	})
}

// floorContended stands in for a classifier verdict: every remote channel
// whose DRAM sample count clears a floor of max(25, 1% of remote DRAM
// samples), in canonical order.
func floorContended(m *topology.Machine, samples []pebs.Sample) []topology.Channel {
	counts := make([]int, m.NumChannels())
	remote := 0
	for i := range samples {
		s := &samples[i]
		if s.Level != cache.MEM || s.SrcNode == s.HomeNode {
			continue
		}
		counts[m.ChannelIndex(s.Channel())]++
		remote++
	}
	floor := max(remote/100, 25)
	var out []topology.Channel
	for ci := 0; ci < m.NumChannels(); ci++ {
		if ch := m.ChannelAt(ci); !ch.Local() && counts[ci] >= floor {
			out = append(out, ch)
		}
	}
	return out
}

func BenchmarkInterleaveGroundTruthProbe(b *testing.B) {
	m := topology.XeonE5_4650()
	bld := micro.Sumv(micro.BigCentralized, 0)
	cfg := program.Config{Threads: 16, Nodes: 2, Input: "default", Seed: 5}
	ecfg := engine.Config{Window: 4096, Warmup: 1024, ReservoirSize: 256, Seed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := optimize.ActualRMC(bld, m, cfg, ecfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamGeneration(b *testing.B) {
	s := &trace.Seq{Base: 0x10000000, Len: 1 << 24, Elem: 8}
	s.Reset(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			s.Reset(uint64(i))
		}
	}
}

// BenchmarkStreamFill measures the batched refill path the engine window
// actually uses (per-access cost of Fill over a 256-entry buffer).
func BenchmarkStreamFill(b *testing.B) {
	s := &trace.Seq{Base: 0x10000000, Len: 1 << 24, Elem: 8}
	s.Reset(1)
	buf := make([]trace.Access, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		if n := trace.Fill(s, buf); n < len(buf) {
			s.Reset(uint64(i))
		}
	}
}
