package experiments

import (
	"errors"
	"fmt"
	"strings"

	"drbw/internal/core"
	"drbw/internal/features"
	"drbw/internal/optimize"
	"drbw/internal/pebs"
	"drbw/internal/program"
	"drbw/internal/workloads"
)

// paperTableV records the paper's per-benchmark (actual, detected) counts
// for side-by-side reporting.
var paperTableV = map[string][2]int{
	"Swaptions": {0, 0}, "Blackscholes": {0, 0}, "Bodytrack": {0, 0},
	"Freqmine": {0, 0}, "Ferret": {0, 0}, "Fluidanimate": {0, 4},
	"X264": {0, 0}, "Streamcluster": {13, 16}, "IRSmk": {15, 15},
	"AMG2006": {8, 8}, "NW": {16, 17}, "BT": {0, 0}, "CG": {0, 0},
	"DC": {0, 0}, "EP": {0, 0}, "FT": {0, 2}, "IS": {0, 0}, "LU": {0, 0},
	"MG": {0, 0}, "UA": {0, 9}, "SP": {11, 11},
}

// Evaluation is the outcome of the full Table IV/V/VI sweep.
type Evaluation struct {
	Summaries []core.BenchmarkSummary
}

// quickCases reduces a builder's sweep when running in quick mode: the
// largest input only, four configurations.
func (c *Context) sweepConfigs() []program.Config {
	cfgs := program.StandardConfigs()
	if !c.Quick {
		return cfgs
	}
	return []program.Config{cfgs[0], cfgs[3], cfgs[5], cfgs[7]} // T16-N4, T64-N4, T16-N2, T32-N2
}

func (c *Context) sweepInputs(inputs []string) []string {
	if !c.Quick || len(inputs) <= 1 {
		return inputs
	}
	return []string{inputs[0], inputs[len(inputs)-1]}
}

// Evaluate sweeps every Table V benchmark over its inputs × configurations,
// with detection and the interleave ground truth per case, through the
// detector's parallel batch API: cases fan out over GOMAXPROCS workers with
// seeds assigned up front, so the result is identical to a serial sweep.
// Failing cases do not abort the sweep — their errors are aggregated into
// the returned error while the Evaluation keeps every successful case.
func (c *Context) Evaluate() (*Evaluation, error) {
	var jobs []core.BatchJob
	var bench []int // jobs[i] belongs to ev.Summaries[bench[i]]
	ev := &Evaluation{}
	seed := uint64(50000)
	for _, e := range workloads.All() {
		if !e.InTableV {
			continue
		}
		bi := len(ev.Summaries)
		ev.Summaries = append(ev.Summaries, core.BenchmarkSummary{Name: e.Name()})
		for _, input := range c.sweepInputs(e.Builder.Inputs) {
			for _, cfg := range c.sweepConfigs() {
				cc := cfg
				cc.Input = input
				cc.Seed = seed
				seed += 31
				jobs = append(jobs, core.BatchJob{Builder: e.Builder, Cfg: cc})
				bench = append(bench, bi)
			}
		}
	}

	// Each case keeps only its CaseResult; the detection behind it is
	// dropped as soon as its worker moves on.
	results := make([]core.CaseResult, len(jobs))
	caseErrs := make([]error, len(jobs))
	c.Detector.EvaluateAll(c.Machine, jobs, func(i int, dn *core.Detection, err error) {
		if err != nil {
			caseErrs[i] = err
			return
		}
		results[i] = dn.CaseResult
	})
	var errs []error
	for i, r := range results {
		if caseErrs[i] != nil {
			errs = append(errs, fmt.Errorf("experiments: %w", caseErrs[i]))
			continue
		}
		sum := &ev.Summaries[bench[i]]
		sum.Cases++
		if r.Actual {
			sum.Actual++
		}
		if r.Detected {
			sum.Detected++
		}
		sum.Results = append(sum.Results, r)
	}
	if len(errs) > 0 {
		return ev, errors.Join(errs...)
	}
	return ev, nil
}

// TableIV renders the benchmark classification. The paper's Table IV
// groups benchmarks by whether contention actually occurs in any case (its
// ground truth), not by raw detection — Fluidanimate, FT and UA keep their
// "good" class despite a few detected cases in Table V. Raytrace and
// LULESH, absent from Table V, are classified from probe cases.
func (c *Context) TableIV(ev *Evaluation) (string, error) {
	class := map[string]features.Label{}
	for _, s := range ev.Summaries {
		if s.Actual > 0 {
			class[s.Name] = features.RMC
		} else {
			class[s.Name] = features.Good
		}
	}
	// The two Table-IV-only benchmarks.
	for _, extra := range []struct {
		name, input string
	}{{"Raytrace", "native"}, {"LULESH", "large"}} {
		e, ok := workloads.ByName(extra.name)
		if !ok {
			return "", fmt.Errorf("experiments: missing %s", extra.name)
		}
		actual := false
		for _, cfg := range c.sweepConfigs() {
			cc := cfg
			cc.Input = extra.input
			cc.Seed = uint64(90000 + cfg.Threads*cfg.Nodes)
			ecfg := c.Ecfg
			ecfg.Seed = cc.Seed + 211
			rmc, _, err := optimize.ActualRMC(e.Builder, c.Machine, cc, ecfg)
			if err != nil {
				return "", err
			}
			if rmc {
				actual = true
				break
			}
		}
		if actual {
			class[extra.name] = features.RMC
		} else {
			class[extra.name] = features.Good
		}
	}

	var good, rmc []string
	for _, e := range workloads.All() {
		switch class[e.Name()] {
		case features.RMC:
			rmc = append(rmc, e.Name())
		default:
			good = append(good, e.Name())
		}
	}
	var b strings.Builder
	b.WriteString("Table IV — benchmark classification (overall, all cases)\n\n")
	fmt.Fprintf(&b, "good (%d): %s\n", len(good), strings.Join(good, ", "))
	fmt.Fprintf(&b, "rmc  (%d): %s\n", len(rmc), strings.Join(rmc, ", "))
	b.WriteString("[paper: 17 good / 6 rmc — SP, Streamcluster, NW, AMG2006, IRSmk, LULESH]\n")

	// Agreement with the paper's classes.
	agree := 0
	for _, e := range workloads.All() {
		if class[e.Name()] == e.PaperClass {
			agree++
		}
	}
	fmt.Fprintf(&b, "agreement with the paper's classes: %d/%d\n", agree, len(workloads.All()))
	return b.String(), nil
}

// TableV renders the per-benchmark case counts next to the paper's.
func (c *Context) TableV(ev *Evaluation) string {
	t := &table{header: []string{
		"Benchmark", "#cases", "actual RMC", "detected RMC", "paper actual", "paper detected",
	}}
	var cases, act, det int
	for _, s := range ev.Summaries {
		p := paperTableV[s.Name]
		t.add(s.Name, itoa(s.Cases), itoa(s.Actual), itoa(s.Detected), itoa(p[0]), itoa(p[1]))
		cases += s.Cases
		act += s.Actual
		det += s.Detected
	}
	t.add("Total", itoa(cases), itoa(act), itoa(det), "63", "82")
	note := ""
	if c.Quick {
		note = "(quick mode: reduced inputs/configs; paper columns refer to the full 512-case sweep)\n"
	}
	return "Table V — per-case detection vs interleave ground truth\n\n" + note + t.String()
}

// TableVI renders the pooled accuracy metrics.
func (c *Context) TableVI(ev *Evaluation) (string, *core.CaseStats) {
	cm := core.AccuracyMatrix(ev.Summaries)
	stats := &core.CaseStats{
		Correctness: cm.Accuracy(),
		FPR:         cm.FalsePositiveRate(1),
		FNR:         cm.FalseNegativeRate(1),
	}
	var b strings.Builder
	b.WriteString("Table VI — detection accuracy over all cases\n\n")
	b.WriteString(cm.String())
	fmt.Fprintf(&b, "\ncorrectness %.1f%%  false positive rate %.1f%%  false negative rate %.1f%%\n",
		100*stats.Correctness, 100*stats.FPR, 100*stats.FNR)
	b.WriteString("[paper: 96.3% correctness, 4.2% FPR, 0% FNR]\n")
	return b.String(), stats
}

// TableVII measures profiling overhead on the six contended benchmarks at
// T64-N4 (profiling on vs off).
func (c *Context) TableVII() (string, float64, error) {
	rows := []struct {
		name, input string
	}{
		{"IRSmk", "large"},
		{"AMG2006", "30x30x30"},
		{"Streamcluster", "native"},
		{"NW", "large"},
		{"SP", "C"},
		{"LULESH", "large"},
	}
	t := &table{header: []string{"Code", "without profiling", "with profiling", "overhead"}}
	var sum float64
	for i, r := range rows {
		e, ok := workloads.ByName(r.name)
		if !ok {
			return "", 0, fmt.Errorf("experiments: missing %s", r.name)
		}
		cfg := program.Config{Threads: 64, Nodes: 4, Input: r.input, Seed: uint64(70000 + i)}
		p, err := e.Builder.New(c.Machine, cfg)
		if err != nil {
			return "", 0, err
		}
		plain := c.Ecfg
		plain.Seed = cfg.Seed + 1
		base, err := p.Run(plain)
		if err != nil {
			return "", 0, err
		}
		p2, err := e.Builder.New(c.Machine, cfg)
		if err != nil {
			return "", 0, err
		}
		prof := c.Ecfg
		prof.Seed = cfg.Seed + 1
		prof.Collector = pebs.NewCollector(core.DefaultCollectorConfig(), cfg.Seed+2)
		withProf, err := p2.Run(prof)
		if err != nil {
			return "", 0, err
		}
		over := withProf.Cycles/base.Cycles - 1
		sum += over
		t.add(r.name, f0(base.Cycles/1e6)+" Mcyc", f0(withProf.Cycles/1e6)+" Mcyc",
			fmt.Sprintf("%+.1f%%", 100*over))
	}
	avg := sum / float64(len(rows))
	out := "Table VII — DR-BW runtime overhead at T64-N4\n\n" + t.String() +
		fmt.Sprintf("average overhead: %+.1f%%  [paper: +3.3%% average, +10.0%% max]\n", 100*avg)
	return out, avg, nil
}
