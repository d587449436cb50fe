// Package drbw reproduces DR-BW (Xu, Wen, Gimenez, Gamblin, Liu — IPDPS
// 2017): a profiler that identifies remote-memory bandwidth contention on
// NUMA machines with a supervised classifier and attributes it to the data
// objects responsible.
//
// Because PEBS address sampling and a 4-socket testbed cannot be driven
// portably from Go, the library runs the complete DR-BW pipeline on a
// faithful software simulation of the paper's platform (see DESIGN.md for
// the substitution table): a NUMA machine model with asymmetric
// interconnects, a cache hierarchy with line fill buffers and a stream
// prefetcher, OS page placement with first-touch/bind/interleave/replicate
// policies, a bandwidth-contention execution engine, and a PEBS-like
// sampler. On top of that substrate the tool is exactly the paper's:
// micro-benchmark training (Table II), a CART decision tree on the Table I
// features, per-channel detection, Contribution-Fraction diagnosis, and the
// co-locate / interleave / replicate fixes.
//
// Typical use:
//
//	tool, err := drbw.Train(drbw.Config{})        // train the classifier
//	rep, err := tool.Analyze("Streamcluster", drbw.Case{
//	    Input: "native", Threads: 32, Nodes: 4,
//	})
//	if rep.Contended() {
//	    fmt.Println(rep)                           // channels + ranked objects
//	    cmp, _ := tool.Optimize("Streamcluster", drbw.Case{...},
//	        drbw.Replicate, rep.TopObjects(1)...)
//	    fmt.Printf("%.2fx\n", cmp.Speedup())
//	}
//
// Custom workloads are described with WorkloadSpec and analyzed with
// Tool.AnalyzeWorkload.
//
// Each call analyzes one case or one recording and fans its own work out:
// block- and byte-range trace analysis, the placement search's candidate
// fan-out and the parallel window inside each simulation run all size themselves from
// runtime.GOMAXPROCS(0); no Config field sets a width. Results are
// bit-identical at any GOMAXPROCS.
package drbw

import (
	"fmt"
	"sync"

	"drbw/internal/core"
	"drbw/internal/dtree"
	"drbw/internal/engine"
	"drbw/internal/features"
	"drbw/internal/micro"
	"drbw/internal/optimize"
	"drbw/internal/pebs"
	"drbw/internal/program"
	"drbw/internal/rcache"
	"drbw/internal/search"
	"drbw/internal/topology"
	"drbw/internal/workloads"
)

// Machine names a built-in machine model.
type Machine string

// Built-in machine models.
const (
	// XeonE5_4650 is the paper's evaluation platform: 4 sockets, 8 cores +
	// HT each, 20 MB L3 per socket, fully connected QPI with asymmetric
	// link bandwidths.
	XeonE5_4650 Machine = "xeon-e5-4650"
	// TwoSocket is a generic 2-socket server without Hyper-Threading.
	TwoSocket Machine = "two-socket"
	// Opteron6276 is a 4-socket AMD Interlagos box — the AMD platform the
	// paper names for future work; its IBS sampling is interchangeable
	// with PEBS for this pipeline.
	Opteron6276 Machine = "opteron-6276"
)

// Machines lists the available machine models.
func Machines() []Machine { return []Machine{XeonE5_4650, TwoSocket, Opteron6276} }

func (m Machine) build() (*topology.Machine, error) {
	switch m {
	case XeonE5_4650, "":
		return topology.XeonE5_4650(), nil
	case TwoSocket:
		return topology.TwoSocket(), nil
	case Opteron6276:
		return topology.Opteron6276(), nil
	default:
		return nil, fmt.Errorf("drbw: unknown machine %q", string(m))
	}
}

// Config controls training and analysis fidelity. The zero value selects
// the paper's setup on the paper's machine.
type Config struct {
	// Machine selects the simulated platform (default XeonE5_4650).
	Machine Machine
	// Window/Warmup set the per-thread cache-simulation window (defaults
	// 24576/6144). Smaller is faster and less faithful. A negative Warmup
	// requests a zero-warmup run (samples include the cold-cache ramp).
	Window, Warmup int
	// Quick trains on a quarter of the 192-run training set. Accuracy drops
	// a little; collection runs ~4x faster.
	Quick bool
	// TreeMaxDepth bounds the decision tree (default 4).
	TreeMaxDepth int
	// Sampling selects the modeled sampling hardware: "pebs" (default,
	// Intel) or "ibs" (AMD instruction-based sampling — micro-op counting,
	// noisier latencies; pair it with the Opteron6276 machine).
	Sampling string
	// Seed makes everything deterministic (default 1).
	Seed uint64
}

func (c Config) engineConfig() engine.Config {
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	ecfg := core.DefaultEngineConfig(seed)
	if c.Window > 0 {
		ecfg.Window = c.Window
	}
	if c.Warmup != 0 {
		ecfg.Warmup = c.Warmup
	}
	if c.Sampling == "ibs" {
		ecfg.SamplerFlavor = pebs.IBS
	}
	return ecfg
}

// validate rejects unknown sampling names early.
func (c Config) validate() error {
	switch c.Sampling {
	case "", "pebs", "ibs":
		return nil
	default:
		return fmt.Errorf("drbw: unknown sampling flavor %q (pebs, ibs)", c.Sampling)
	}
}

func (c Config) treeConfig() dtree.Config {
	tc := core.DefaultTreeConfig()
	if c.TreeMaxDepth > 0 {
		tc.MaxDepth = c.TreeMaxDepth
	}
	return tc
}

// Case selects one run configuration of a benchmark: the paper's Tt-Nn
// notation plus the input-size name.
type Case struct {
	Input   string // benchmark-specific; empty selects the smallest
	Threads int    // total threads (default 16)
	Nodes   int    // NUMA nodes used (default 2)
	Seed    uint64
}

func (c Case) config() program.Config {
	return program.Config{Threads: c.Threads, Nodes: c.Nodes, Input: c.Input, Seed: c.Seed}
}

// StandardCases returns the paper's eight Tt-Nn configurations with the
// given input.
func StandardCases(input string) []Case {
	var out []Case
	for _, cfg := range program.StandardConfigs() {
		out = append(out, Case{Input: input, Threads: cfg.Threads, Nodes: cfg.Nodes})
	}
	return out
}

// Tool is a trained DR-BW instance. A Tool is safe for concurrent use:
// every analysis builds its own simulated program and collector, and the
// trained tree is read-only after Train.
type Tool struct {
	cfg      Config
	machine  *topology.Machine
	training *core.TrainingData        // nil when loaded from a saved model
	detector *core.Detector            // holds the trained tree
	summary  map[string]map[string]int // persisted training summary

	cache  *Cache // optional result cache (SetCache)
	fpOnce sync.Once
	fp     toolFingerprints
}

// Train collects the micro-benchmark training set on the configured machine
// and fits the decision-tree classifier — the paper's Sections IV and V in
// one call. Expect a few tens of seconds for the full 192-run set; use
// Config.Quick for interactive work.
func Train(cfg Config) (*Tool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m, err := cfg.Machine.build()
	if err != nil {
		return nil, err
	}
	return trainOnMachine(m, cfg)
}

func trainOnMachine(m *topology.Machine, cfg Config) (*Tool, error) {
	set := micro.TrainingSet()
	if cfg.Quick {
		var reduced []micro.Instance
		for i := 0; i < len(set); i += 4 {
			reduced = append(reduced, set[i])
		}
		set = reduced
	}
	// Skip instances the machine cannot run (a small custom machine has no
	// T64-N4); what remains still spans both classes.
	var feasible []micro.Instance
	for _, inst := range set {
		if _, err := inst.Builder.New(m, inst.Cfg); err == nil {
			feasible = append(feasible, inst)
		}
	}
	if len(feasible) < 20 {
		return nil, fmt.Errorf("drbw: machine %q can run only %d of %d training instances; too small to train on", m.Name(), len(feasible), len(set))
	}
	ecfg := cfg.engineConfig()
	td, err := core.CollectTraining(m, ecfg, feasible)
	if err != nil {
		return nil, err
	}
	tree, err := core.TrainClassifier(td, cfg.treeConfig())
	if err != nil {
		return nil, err
	}
	return &Tool{
		cfg: cfg, machine: m, training: td,
		detector: core.NewDetector(tree, ecfg),
	}, nil
}

// TrainingSummary reports runs per mini-program and mode (Table II). For a
// tool loaded from a saved model it returns the persisted summary.
func (t *Tool) TrainingSummary() map[string]map[string]int {
	if t.training == nil {
		return t.summary
	}
	out := map[string]map[string]int{}
	for prog, counts := range t.training.Summary() {
		out[prog] = map[string]int{}
		for label, n := range counts {
			out[prog][label.String()] = n
		}
	}
	return out
}

// TrainingRuns returns the number of collected training runs (0 for a tool
// loaded from a saved model).
func (t *Tool) TrainingRuns() int {
	if t.training == nil {
		return 0
	}
	return len(t.training.Runs)
}

// Tree renders the trained decision tree (Figure 3).
func (t *Tool) Tree() string { return t.detector.Tree.String() }

// TreeFeatures lists the Table I features (1-based indices) the trained
// tree actually splits on; the paper's tree uses features 6 and 7.
func (t *Tool) TreeFeatures() []int {
	var out []int
	for _, f := range t.detector.Tree.UsedFeatures() {
		out = append(out, f+1)
	}
	return out
}

// FeatureName returns the description of a 1-based Table I feature index.
func FeatureName(i int) string {
	if i < 1 || i > features.NumFeatures {
		return fmt.Sprintf("feature %d", i)
	}
	return features.Names[i-1]
}

// CrossValidate runs stratified 10-fold cross validation on the training
// data and returns the pooled confusion matrix (Table III).
func (t *Tool) CrossValidate() (*Confusion, error) {
	if t.training == nil {
		return nil, errNoTrainingData
	}
	cm, err := core.CrossValidate(t.training, t.cfg.treeConfig())
	if err != nil {
		return nil, err
	}
	return newConfusion(cm), nil
}

// SelectedCandidates reruns the paper's feature-selection filter over the
// full candidate statistics of the training runs (the Table I experiment)
// and returns the kept feature names. Empty for a loaded tool.
func (t *Tool) SelectedCandidates() []string {
	if t.training == nil {
		return nil
	}
	return t.training.SelectionExperiment()
}

// Benchmarks lists the names of the built-in benchmark proxies (the
// paper's 23 evaluation benchmarks).
func Benchmarks() []string { return workloads.Names() }

// BenchmarkInputs lists the input sizes a benchmark accepts, smallest
// first.
func BenchmarkInputs(name string) ([]string, error) {
	e, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("drbw: unknown benchmark %q", name)
	}
	return append([]string(nil), e.Builder.Inputs...), nil
}

func (t *Tool) builder(bench string) (program.Builder, error) {
	e, ok := workloads.ByName(bench)
	if !ok {
		return program.Builder{}, fmt.Errorf("drbw: unknown benchmark %q (see drbw.Benchmarks())", bench)
	}
	return e.Builder, nil
}

// reportFromDetection renders a single-pass detection as the public
// report: the verdict, the diagnosis and the timeline its sweep computed.
func reportFromDetection(dn *core.Detection) *Report {
	r := newReport(dn.Contended, dn.Diagnose(), dn.Timeline, int64(len(dn.Samples)))
	r.Bench, r.Input, r.Config = dn.Bench, dn.Cfg.Input, dn.Cfg.Label()
	r.Evaluated, r.Actual, r.InterleaveSpeedup = dn.Evaluated, dn.Actual, dn.InterleaveSpeedup
	return r
}

// Analyze profiles one case of a built-in benchmark and runs the full
// DR-BW pipeline: per-channel classification, then — if contention is
// detected — Contribution-Fraction diagnosis of the contended channels,
// plus a remote-pressure timeline. The case is simulated exactly once;
// diagnosis reuses the retained samples.
func (t *Tool) Analyze(bench string, c Case) (*Report, error) {
	b, err := t.builder(bench)
	if err != nil {
		return nil, err
	}
	return t.detect(b, c, t.detector.Detect)
}

// Evaluate runs Analyze plus the paper's ground-truth probe (whole-program
// interleaving; ≥10% speedup means the case is actually contended). The
// profiled run happens once; only the probe's interleaved variant is
// simulated on top.
func (t *Tool) Evaluate(bench string, c Case) (*Report, error) {
	b, err := t.builder(bench)
	if err != nil {
		return nil, err
	}
	return t.detect(b, c, t.detector.Evaluate)
}

// detect runs one of the detector's pipelines, Detect or Evaluate, on a
// case of b and renders the report: the body of Analyze, Evaluate and
// their workload forms.
func (t *Tool) detect(b program.Builder, c Case, run func(program.Builder, *topology.Machine, program.Config) (*core.Detection, error)) (*Report, error) {
	dn, err := run(b, t.machine, c.config())
	if err != nil {
		return nil, err
	}
	return reportFromDetection(dn), nil
}

// Strategy is a placement fix.
type Strategy int

// The paper's placement fixes.
const (
	// Interleave spreads pages round-robin over all nodes (the baseline).
	Interleave Strategy = iota
	// Colocate places each thread's share of an object on that thread's
	// node (the AMG/IRSmk/LULESH/NW fix).
	Colocate
	// Replicate duplicates a read-only object per node (the streamcluster
	// fix).
	Replicate
)

func (s Strategy) internal() (optimize.Strategy, error) {
	switch s {
	case Interleave:
		return optimize.Interleave, nil
	case Colocate:
		return optimize.Colocate, nil
	case Replicate:
		return optimize.Replicate, nil
	default:
		return 0, fmt.Errorf("drbw: unknown strategy %d", int(s))
	}
}

// String names the strategy.
func (s Strategy) String() string {
	if o, err := s.internal(); err == nil {
		return o.String()
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Comparison reports a base-vs-optimized measurement.
type Comparison struct {
	BaseCycles, OptCycles float64
	// PhaseSpeedups holds per-phase speedups in phase order.
	PhaseSpeedups []float64
	// RemoteReduction / LatencyReduction are fractional improvements
	// (0.878 means remote accesses dropped 87.8%).
	RemoteReduction, LatencyReduction float64
}

// Speedup is BaseCycles/OptCycles.
func (c Comparison) Speedup() float64 {
	if c.OptCycles == 0 {
		return 0
	}
	return c.BaseCycles / c.OptCycles
}

// Optimize measures a placement fix on one benchmark case. With no object
// names the fix applies to every heap object (the whole-program variant the
// paper uses for interleave); otherwise only the named objects move —
// normally the top-CF objects from a Report.
func (t *Tool) Optimize(bench string, c Case, s Strategy, objects ...string) (Comparison, error) {
	b, err := t.builder(bench)
	if err != nil {
		return Comparison{}, err
	}
	return t.measure(b, c, s, objects)
}

// measure simulates a placement fix on a case of b: the body of Optimize
// and OptimizeWorkload.
func (t *Tool) measure(b program.Builder, c Case, s Strategy, objects []string) (Comparison, error) {
	strat, err := s.internal()
	if err != nil {
		return Comparison{}, err
	}
	var tr optimize.Transform
	if len(objects) == 0 {
		tr = optimize.WholeProgram(strat)
	} else {
		tr = optimize.Objects(strat, objects...)
	}
	cmp, err := optimize.Measure(b, t.machine, c.config(), t.cfg.engineConfig(), tr)
	if err != nil {
		return Comparison{}, err
	}
	return publicComparison(cmp), nil
}

func publicComparison(cmp optimize.Comparison) Comparison {
	return Comparison{
		BaseCycles: cmp.BaseCycles, OptCycles: cmp.OptCycles,
		PhaseSpeedups:   append([]float64(nil), cmp.PhaseSpeedups...),
		RemoteReduction: cmp.RemoteReduction, LatencyReduction: cmp.LatencyReduction,
	}
}

// SearchOptions tunes AutoOptimize's placement search. The zero value uses
// the defaults (top 3 objects, frontier of 12, GOMAXPROCS workers).
type SearchOptions struct {
	// TopObjects caps how many top-CF objects the search combines (<= 0: 3).
	TopObjects int
	// Frontier is how many top-scoring candidates are simulated (0: 12;
	// negative: all — exhaustive).
	Frontier int
}

// Optimization is AutoOptimize's outcome: the detection report plus — when
// contention was detected — the placement the search chose.
type Optimization struct {
	// Report is the detection + diagnosis of the profiled case.
	Report *Report
	// Detected mirrors Report.Detected.
	Detected bool
	// Placement is the chosen fix in canonical "obj=strategy,..." form
	// ("*=interleave" for the whole-program probe); empty when nothing was
	// detected or no candidate was simulated.
	Placement string
	// Speedup is the baseline-to-chosen cycle ratio.
	Speedup float64
	// Comparison details the chosen placement against the baseline.
	Comparison Comparison
	// Candidates, Explored and Pruned describe the search: how many
	// placements were enumerated, simulated, and cut by the analytic
	// frontier.
	Candidates, Explored, Pruned int
}

// AutoOptimize closes the paper's loop: profile and classify one case
// (exactly as Analyze), and — when contention is detected — search the
// placement space over the diagnosed objects for the best fix. Candidates
// are ranked by an analytic cost model; only the top-scoring frontier is
// simulated, in parallel, each candidate to completion. The chosen
// placement is deterministic at any worker count.
//
// With a cache attached (SetCache) the whole outcome is served from cache
// on a repeat run; a rerun with different search options reuses the cached
// detection verdict, which skips the search outright for a clean case.
func (t *Tool) AutoOptimize(bench string, c Case, opts SearchOptions) (*Optimization, error) {
	if t.cache == nil {
		return t.autoOptimize(bench, c, opts, "")
	}
	_, simFP, err := t.fingerprints()
	if err != nil {
		return nil, err
	}
	key := rcache.KeyOf("optimize", simFP, bench, caseToken(c), optsToken(opts))
	return cached(t.cache, key, func() (*Optimization, error) {
		return t.autoOptimize(bench, c, opts, simFP)
	})
}

// autoOptimize is the uncached body. A non-empty simFP enables the
// detection-report cache: a cached clean verdict skips the profiling run
// entirely. A cached *contended* verdict cannot short-circuit — the search
// needs the detection's retained samples and heap, which are deliberately
// not persisted. No baseline is cached: the search replays every candidate
// from the base run's window recording, which a decoded baseline lacks,
// so it would measure the base again anyway.
func (t *Tool) autoOptimize(bench string, c Case, opts SearchOptions, simFP string) (*Optimization, error) {
	b, err := t.builder(bench)
	if err != nil {
		return nil, err
	}
	if simFP != "" {
		if rep, ok := t.cachedDetectReport(simFP, bench, c); ok && !rep.Detected {
			return &Optimization{Report: rep, Detected: false}, nil
		}
	}
	dn, err := t.detector.Detect(b, t.machine, c.config())
	if err != nil {
		return nil, err
	}
	out := &Optimization{Report: reportFromDetection(dn), Detected: dn.Detected}
	if simFP != "" {
		t.putDetectReport(simFP, bench, c, out.Report)
	}
	if !dn.Detected {
		return out, nil
	}
	scfg := search.Config{TopObjects: opts.TopObjects, Frontier: opts.Frontier}
	res, err := search.FromDetection(dn, t.cfg.engineConfig(), scfg)
	if err != nil {
		return nil, err
	}
	out.Candidates = len(res.Outcomes)
	out.Explored = res.Explored
	out.Pruned = res.Pruned
	if res.Best != nil {
		out.Placement = res.Best.Candidate.Key()
		out.Speedup = res.Speedup()
		out.Comparison = publicComparison(res.Best.Comparison)
	}
	return out, nil
}
