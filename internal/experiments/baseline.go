package experiments

import (
	"fmt"
	"strings"

	"drbw/internal/autoplace"
	"drbw/internal/optimize"
	"drbw/internal/program"
	"drbw/internal/workloads"
)

// BaselineStudy compares DR-BW-guided fixes against the heuristic
// traffic-management baseline of Section II-B (Carrefour-style rules, at
// object and page granularity) on three contended benchmarks. The paper's
// argument, quantified: fixed placement rules either misfire on
// block-partitioned arrays (object granularity sees "shared", interleaves)
// or cover almost nothing at profiler sampling rates (page granularity).
func (c *Context) BaselineStudy() (string, error) {
	cases := []struct {
		bench, input string
		threads      int
		fix          optimize.Transform
		fixName      string
		// pageFair: page-rule speedups are only measured where sampling is
		// spatially unbiased (random access). For sequential scans the
		// simulation window and the sampled pages coincide, which would
		// over-credit page migration; those rows report coverage only.
		pageFair bool
	}{
		{"AMG2006", "30x30x30", 64,
			optimize.Objects(optimize.Colocate, "RAP_diag_j", "diag_j", "diag_data", "A_diag_j"),
			"co-locate(4 arrays)", false},
		{"Streamcluster", "native", 32,
			optimize.Objects(optimize.Replicate, "block", "point.p"),
			"replicate(block,point.p)", true},
		{"NW", "large", 32,
			optimize.Objects(optimize.Colocate, "input_itemsets", "reference"),
			"co-locate(2 arrays)", false},
	}
	t := &table{header: []string{"benchmark", "DR-BW fix", "interleave-all", "object rules", "page rules", "page coverage"}}
	var notes strings.Builder
	for i, cs := range cases {
		e, ok := workloads.ByName(cs.bench)
		if !ok {
			return "", fmt.Errorf("experiments: missing %s", cs.bench)
		}
		cfg := program.Config{Threads: cs.threads, Nodes: 4, Input: cs.input, Seed: uint64(97000 + i*19)}

		// One profiled run supplies the samples every strategy plans from.
		dn, err := c.Detector.Detect(e.Builder, c.Machine, cfg)
		if err != nil {
			return "", err
		}
		prof, samples := dn.Program, dn.Samples

		ecfg := c.Ecfg
		ecfg.Seed = cfg.Seed + 7

		// One recorded base run; every fix and heuristic replays it.
		base, err := optimize.MeasureBase(e.Builder, c.Machine, cfg, ecfg)
		if err != nil {
			return "", err
		}
		speedup := func(tr optimize.Transform) (float64, error) {
			cmp, err := optimize.MeasureAgainst(base, e.Builder, c.Machine, cfg, ecfg, tr)
			return cmp.Speedup(), err
		}

		drbwS, err := speedup(cs.fix)
		if err != nil {
			return "", err
		}
		interS, err := speedup(optimize.WholeProgram(optimize.Interleave))
		if err != nil {
			return "", err
		}

		objActions := autoplace.PlanObjects(prof.Heap, samples, autoplace.Config{})
		objS, err := speedup(func(p *program.Program) error {
			return autoplace.ApplyObjects(p, objActions)
		})
		if err != nil {
			return "", err
		}

		pageActions, coverage := autoplace.PlanPages(c.Machine, prof.Heap, samples, autoplace.Config{})
		pageCell := "n/a*"
		if cs.pageFair {
			pageS, err := speedup(func(p *program.Program) error {
				return autoplace.ApplyPages(p, pageActions)
			})
			if err != nil {
				return "", err
			}
			pageCell = spd(pageS)
		}

		t.add(cs.bench, spd(drbwS), spd(interS), spd(objS), pageCell, pct(coverage))
		fmt.Fprintf(&notes, "\n%s — object rules chose:\n%s", cs.bench, autoplace.Summary(objActions))
	}
	out := "Baseline study — DR-BW-guided fixes vs traffic-management heuristics (§II-B)\n" +
		"[fixed rules misfire on block-partitioned arrays; page rules cover ~nothing at 1/2000 sampling]\n\n" +
		t.String() +
		"\n* page-rule speedups are reported only for randomly-accessed data, where the\n" +
		"  sampler's spatial coverage is unbiased; for sequential scans the windowed\n" +
		"  simulator cannot evaluate per-page migration faithfully (coverage column\n" +
		"  still shows how little of the footprint 1/2000 sampling can decide on).\n" +
		notes.String()
	return out, nil
}
