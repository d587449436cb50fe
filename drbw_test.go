package drbw_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"drbw"
)

var (
	toolOnce sync.Once
	tool     *drbw.Tool
	toolErr  error
)

// sharedTool trains once (quick mode, reduced window) for every public-API
// test and benchmark.
func sharedTool(t testing.TB) *drbw.Tool {
	t.Helper()
	toolOnce.Do(func() {
		tool, toolErr = drbw.Train(drbw.Config{
			Quick:  true,
			Window: 4096, Warmup: 2048,
			Seed: 5,
		})
	})
	if toolErr != nil {
		t.Fatal(toolErr)
	}
	return tool
}

// setProcs sets GOMAXPROCS, which sizes the worker pools, the placement
// search's candidate fan-out and each run's parallel window, to n for the rest of the
// test or benchmark.
func setProcs(tb testing.TB, n int) {
	tb.Helper()
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestTrainRejectsUnknownMachine(t *testing.T) {
	if _, err := drbw.Train(drbw.Config{Machine: "pdp-11"}); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestMachinesListed(t *testing.T) {
	ms := drbw.Machines()
	if len(ms) < 2 {
		t.Fatalf("machines: %v", ms)
	}
}

func TestTrainingSummaryAndTree(t *testing.T) {
	tl := sharedTool(t)
	if tl.TrainingRuns() != 48 {
		t.Errorf("quick training runs = %d, want 48", tl.TrainingRuns())
	}
	sum := tl.TrainingSummary()
	if sum["bandit"]["good"] == 0 {
		t.Error("no bandit good runs in summary")
	}
	tree := tl.Tree()
	if !strings.Contains(tree, "<=") {
		t.Errorf("tree rendering missing splits:\n%s", tree)
	}
	feats := tl.TreeFeatures()
	if len(feats) == 0 {
		t.Fatal("tree uses no features")
	}
	for _, f := range feats {
		if f < 1 || f > 13 {
			t.Errorf("feature index %d out of Table I range", f)
		}
		if drbw.FeatureName(f) == "" {
			t.Errorf("feature %d unnamed", f)
		}
	}
}

func TestCrossValidatePublic(t *testing.T) {
	tl := sharedTool(t)
	cm, err := tl.CrossValidate()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total() != 48 {
		t.Errorf("CV total %d", cm.Total())
	}
	if cm.Accuracy() < 0.85 {
		t.Errorf("CV accuracy %.2f", cm.Accuracy())
	}
	if !strings.Contains(cm.String(), "accuracy") {
		t.Error("confusion rendering incomplete")
	}
}

func TestBenchmarksRegistry(t *testing.T) {
	names := drbw.Benchmarks()
	if len(names) != 23 {
		t.Fatalf("%d benchmarks", len(names))
	}
	inputs, err := drbw.BenchmarkInputs("Streamcluster")
	if err != nil || len(inputs) != 2 {
		t.Fatalf("streamcluster inputs %v err %v", inputs, err)
	}
	if _, err := drbw.BenchmarkInputs("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestAnalyzeContendedCase(t *testing.T) {
	tl := sharedTool(t)
	rep, err := tl.Analyze("Streamcluster", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Contended() {
		t.Fatal("streamcluster not detected")
	}
	if len(rep.Channels) == 0 {
		t.Error("no channels in report")
	}
	top := rep.TopObjects(1)
	if len(top) != 1 || top[0] != "block" {
		t.Errorf("top objects %v, want [block]", top)
	}
	s := rep.String()
	if !strings.Contains(s, "CONTENTION") || !strings.Contains(s, "block") {
		t.Errorf("report rendering:\n%s", s)
	}
	// The timeline shows sustained remote pressure for this steady workload.
	if len(rep.Timeline) == 0 {
		t.Fatal("timeline missing")
	}
	spark := rep.TimelineSparkline()
	if strings.TrimSpace(spark) == "" {
		t.Errorf("sparkline empty for a contended run: %q", spark)
	}
	if !strings.Contains(s, "remote latency over time") {
		t.Errorf("rendering missing timeline:\n%s", s)
	}
}

func TestAnalyzeFriendlyCase(t *testing.T) {
	tl := sharedTool(t)
	rep, err := tl.Analyze("Swaptions", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Contended() {
		t.Errorf("swaptions flagged: %s", rep)
	}
	if !strings.Contains(rep.String(), "no remote memory bandwidth contention") {
		t.Errorf("friendly rendering:\n%s", rep)
	}
}

func TestAnalyzeUnknownBenchmark(t *testing.T) {
	tl := sharedTool(t)
	if _, err := tl.Analyze("nope", drbw.Case{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestEvaluateIncludesGroundTruth(t *testing.T) {
	tl := sharedTool(t)
	rep, err := tl.Evaluate("Streamcluster", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Evaluated {
		t.Fatal("ground truth missing")
	}
	if !rep.Actual || rep.InterleaveSpeedup < 1.1 {
		t.Errorf("actual=%v speedup=%.2f", rep.Actual, rep.InterleaveSpeedup)
	}
}

// forEachConcurrently runs fn(i) for every i < n, each on its own
// goroutine, and waits for all of them: the caller-side fan-out that
// replaced the batch API.
func forEachConcurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// TestAnalyzeAllMatchesSerial checks the determinism guarantee for a
// caller that analyzes all cases at once: concurrent Analyze calls on one
// Tool render byte-identical reports to serial calls, at pool widths 1 and
// 2, because each case's randomness derives only from its own seed.
func TestAnalyzeAllMatchesSerial(t *testing.T) {
	tl := sharedTool(t)
	cases := drbw.StandardCases("native")[:4]
	for i := range cases {
		cases[i].Seed = uint64(300 + i*17)
	}

	serial := make([]string, len(cases))
	for i, c := range cases {
		rep, err := tl.Analyze("Streamcluster", c)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = rep.String()
	}

	for _, workers := range []int{1, 2} {
		setProcs(t, workers)
		reports := make([]*drbw.Report, len(cases))
		errs := make([]error, len(cases))
		forEachConcurrently(len(cases), func(i int) {
			reports[i], errs[i] = tl.Analyze("Streamcluster", cases[i])
		})
		for i, rep := range reports {
			if errs[i] != nil {
				t.Fatalf("workers=%d case %d: %v", workers, i, errs[i])
			}
			if rep.String() != serial[i] {
				t.Errorf("workers=%d case %d: concurrent report differs from serial:\n--- concurrent ---\n%s--- serial ---\n%s",
					workers, i, rep.String(), serial[i])
			}
		}
	}
}

// TestEvaluateAllCarriesGroundTruth checks that evaluating several cases
// at once runs the interleave probe for each of them.
func TestEvaluateAllCarriesGroundTruth(t *testing.T) {
	tl := sharedTool(t)
	cases := []drbw.Case{
		{Input: "native", Threads: 32, Nodes: 4, Seed: 410},
		{Input: "native", Threads: 16, Nodes: 2, Seed: 411},
	}
	reports := make([]*drbw.Report, len(cases))
	errs := make([]error, len(cases))
	forEachConcurrently(len(cases), func(i int) {
		reports[i], errs[i] = tl.Evaluate("Streamcluster", cases[i])
	})
	for i, rep := range reports {
		if errs[i] != nil {
			t.Fatalf("case %d: %v", i, errs[i])
		}
		if !rep.Evaluated {
			t.Errorf("case %d: ground truth missing", i)
		}
	}
	if !reports[0].Actual {
		t.Error("dense streamcluster case should be actually contended")
	}
}

func TestOptimizeReplicationFixesStreamcluster(t *testing.T) {
	tl := sharedTool(t)
	c := drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 7}
	cmp, err := tl.Optimize("Streamcluster", c, drbw.Replicate, "block")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup() < 1.2 {
		t.Errorf("replicate speedup %.2f", cmp.Speedup())
	}
	if cmp.RemoteReduction <= 0 {
		t.Errorf("remote reduction %.2f", cmp.RemoteReduction)
	}
}

func TestOptimizeUnknownObject(t *testing.T) {
	tl := sharedTool(t)
	c := drbw.Case{Input: "native", Threads: 16, Nodes: 2, Seed: 8}
	if _, err := tl.Optimize("Streamcluster", c, drbw.Colocate, "not_an_array"); err == nil {
		t.Error("unknown object accepted")
	}
}

func TestStrategyStrings(t *testing.T) {
	if drbw.Interleave.String() != "interleave" || drbw.Colocate.String() != "co-locate" ||
		drbw.Replicate.String() != "replicate" {
		t.Error("strategy names wrong")
	}
	if !strings.Contains(drbw.Strategy(9).String(), "9") {
		t.Error("unknown strategy rendering")
	}
}

func TestStandardCases(t *testing.T) {
	cs := drbw.StandardCases("native")
	if len(cs) != 8 {
		t.Fatalf("%d standard cases", len(cs))
	}
	for _, c := range cs {
		if c.Input != "native" || c.Threads%c.Nodes != 0 {
			t.Errorf("bad case %+v", c)
		}
	}
}

func TestCustomWorkloadPipeline(t *testing.T) {
	tl := sharedTool(t)
	w := drbw.WorkloadSpec{
		Name: "hotarray",
		Arrays: []drbw.ArraySpec{
			{Name: "hot", MB: 96, Placement: drbw.Master, Pattern: drbw.Scan, Weight: 3},
			{Name: "cold", MB: 16, Placement: drbw.Parallel, Pattern: drbw.Scan},
		},
		MLP: 8, WorkCycles: 1,
	}
	c := drbw.Case{Threads: 32, Nodes: 4, Seed: 9}
	rep, err := tl.AnalyzeWorkload(w, c)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Contended() {
		t.Fatal("master-placed hot array not detected")
	}
	if top := rep.TopObjects(1); len(top) == 0 || top[0] != "hot" {
		t.Errorf("top objects %v, want hot first", top)
	}
	cmp, err := tl.OptimizeWorkload(w, c, drbw.Colocate, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup() < 1.3 {
		t.Errorf("co-locating the hot array gained only %.2fx", cmp.Speedup())
	}
}

func TestCustomWorkloadValidation(t *testing.T) {
	tl := sharedTool(t)
	if _, err := tl.AnalyzeWorkload(drbw.WorkloadSpec{Name: "empty"}, drbw.Case{Threads: 8, Nodes: 2}); err == nil {
		t.Error("empty workload accepted")
	}
	bad := drbw.WorkloadSpec{Arrays: []drbw.ArraySpec{{Name: "a", MB: 0}}}
	if _, err := tl.AnalyzeWorkload(bad, drbw.Case{Threads: 8, Nodes: 2}); err == nil {
		t.Error("zero-size array accepted")
	}
	unnamed := drbw.WorkloadSpec{Arrays: []drbw.ArraySpec{{MB: 4}}}
	if _, err := tl.AnalyzeWorkload(unnamed, drbw.Case{Threads: 8, Nodes: 2}); err == nil {
		t.Error("unnamed array accepted")
	}
	badPlace := drbw.WorkloadSpec{Arrays: []drbw.ArraySpec{{Name: "a", MB: 4, Placement: "moon"}}}
	if _, err := tl.AnalyzeWorkload(badPlace, drbw.Case{Threads: 8, Nodes: 2}); err == nil {
		t.Error("unknown placement accepted")
	}
	badPat := drbw.WorkloadSpec{Arrays: []drbw.ArraySpec{{Name: "a", MB: 4, Pattern: "zigzag"}}}
	if _, err := tl.AnalyzeWorkload(badPat, drbw.Case{Threads: 8, Nodes: 2}); err == nil {
		t.Error("unknown pattern accepted")
	}
}

// TestSeedRobustness retrains with different seeds and checks the
// detector's verdicts are stable — the classifier must not be an artifact
// of one sampling realization.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("retraining is slow")
	}
	for _, seed := range []uint64{42, 1337} {
		tl, err := drbw.Train(drbw.Config{Quick: true, Window: 4096, Warmup: 2048, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sc, err := tl.Analyze("Streamcluster", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: seed + 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Contended() {
			t.Errorf("seed %d: streamcluster not detected", seed)
		}
		sw, err := tl.Analyze("Swaptions", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: seed + 2})
		if err != nil {
			t.Fatal(err)
		}
		if sw.Contended() {
			t.Errorf("seed %d: swaptions misdetected", seed)
		}
	}
}

// TestConcurrentAnalyze exercises the documented concurrency guarantee.
func TestConcurrentAnalyze(t *testing.T) {
	tl := sharedTool(t)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	detected := make([]bool, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := tl.Analyze("Streamcluster", drbw.Case{
				Input: "simLarge", Threads: 16, Nodes: 2, Seed: uint64(200 + i),
			})
			if err != nil {
				errs[i] = err
				return
			}
			detected[i] = rep.Contended()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
		if !detected[i] {
			t.Errorf("goroutine %d missed the contention", i)
		}
	}
}
