package experiments

import (
	"fmt"
	"strings"

	"drbw/internal/chart"
	"drbw/internal/optimize"
	"drbw/internal/program"
	"drbw/internal/workloads"
)

// indent prefixes every line of s.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Fig4 diagnoses the four case-study benchmarks at a contended
// configuration and renders their Contribution-Fraction distributions.
func (c *Context) Fig4() (string, error) {
	cases := []struct {
		name, input string
		threads     int
		paperTop    string
	}{
		{"AMG2006", "30x30x30", 64, "RAP_diag_j"},
		{"Streamcluster", "native", 64, "block"},
		{"LULESH", "large", 64, "m_* arrays + static data"},
		{"NW", "large", 64, "reference / input_itemsets"},
	}
	var b strings.Builder
	b.WriteString("Figure 4 — Contribution Fraction (CF) across data objects\n")
	for i, cs := range cases {
		e, ok := workloads.ByName(cs.name)
		if !ok {
			return "", fmt.Errorf("experiments: missing %s", cs.name)
		}
		cfg := program.Config{Threads: cs.threads, Nodes: 4, Input: cs.input, Seed: uint64(60000 + i*7)}
		dn, err := c.Detector.Detect(e.Builder, c.Machine, cfg)
		if err != nil {
			return "", err
		}
		rep := dn.Diagnose()
		fmt.Fprintf(&b, "\n(%c) %s %s %s — detected=%v  [paper top: %s]\n",
			'a'+i, cs.name, cs.input, cfg.Label(), dn.Detected, cs.paperTop)
		if len(rep.Overall) == 0 {
			b.WriteString("  (no contended samples)\n")
			continue
		}
		var bars []chart.Bar
		shown := 0
		for _, o := range rep.Overall {
			if shown >= 8 && o.CF < 0.03 {
				break
			}
			bars = append(bars, chart.Bar{Label: o.Object.Name, Value: 100 * o.CF})
			shown++
		}
		if rep.UnattributedCF > 0.005 {
			bars = append(bars, chart.Bar{Label: "<static/stack>", Value: 100 * rep.UnattributedCF})
		}
		b.WriteString(indent(chart.Render(bars, chart.Options{Width: 36, Format: "%.1f%%", Max: 100}), "  "))
	}
	return b.String(), nil
}

// speedupSweep measures a per-object transform vs whole-program interleave
// over configurations, one row per config, with per-phase columns when the
// benchmark has phases.
func (c *Context) speedupSweep(bench, input string, cfgs []program.Config, fix optimize.Transform, fixName string, perPhase bool) (string, map[string]float64, error) {
	e, ok := workloads.ByName(bench)
	if !ok {
		return "", nil, fmt.Errorf("experiments: unknown benchmark %s", bench)
	}
	header := []string{"config", fixName, "interleave"}
	if perPhase {
		header = []string{"config", "strategy", "init", "setup", "solve", "total"}
	}
	t := &table{header: header}
	best := map[string]float64{}
	var bars []chart.Bar
	for i, cfg := range cfgs {
		cc := cfg
		cc.Input = input
		cc.Seed = uint64(61000 + i*13)
		base, err := optimize.MeasureBase(e.Builder, c.Machine, cc, c.Ecfg)
		if err != nil {
			return "", nil, err
		}
		fixCmp, err := optimize.MeasureAgainst(base, e.Builder, c.Machine, cc, c.Ecfg, fix)
		if err != nil {
			return "", nil, err
		}
		interCmp, err := optimize.MeasureAgainst(base, e.Builder, c.Machine, cc, c.Ecfg, optimize.WholeProgram(optimize.Interleave))
		if err != nil {
			return "", nil, err
		}
		if s := fixCmp.Speedup(); s > best[fixName] {
			best[fixName] = s
		}
		if s := interCmp.Speedup(); s > best["interleave"] {
			best["interleave"] = s
		}
		if perPhase {
			t.add(append([]string{cc.Label(), fixName}, phaseCells(fixCmp)...)...)
			t.add(append([]string{cc.Label(), "interleave"}, phaseCells(interCmp)...)...)
		} else {
			t.add(cc.Label(), spd(fixCmp.Speedup()), spd(interCmp.Speedup()))
			bars = append(bars,
				chart.Bar{Label: cc.Label(), Value: fixCmp.Speedup(), Group: fixName},
				chart.Bar{Label: cc.Label(), Value: interCmp.Speedup(), Group: "interleave"})
		}
	}
	out := t.String()
	if len(bars) > 0 {
		out += "\n" + chart.Render(bars, chart.Options{Width: 36, Format: "%.2fx"})
	}
	return out, best, nil
}

func phaseCells(cmp optimize.Comparison) []string {
	var out []string
	for _, s := range cmp.PhaseSpeedups {
		out = append(out, spd(s))
	}
	for len(out) < 3 {
		out = append(out, "-")
	}
	out = append(out, spd(cmp.Speedup()))
	return out
}

func (c *Context) figConfigs() []program.Config {
	if c.Quick {
		return []program.Config{
			{Threads: 16, Nodes: 4}, {Threads: 64, Nodes: 4}, {Threads: 32, Nodes: 2},
		}
	}
	return program.StandardConfigs()
}

// Fig5 compares co-locating AMG's four blamed arrays against interleaving,
// per phase.
func (c *Context) Fig5() (string, error) {
	body, _, err := c.speedupSweep("AMG2006", "30x30x30", c.figConfigs(),
		optimize.Objects(optimize.Colocate, "RAP_diag_j", "diag_j", "diag_data", "A_diag_j"),
		"co-locate", true)
	if err != nil {
		return "", err
	}
	return "Figure 5 — AMG2006 speedups per phase, co-locate (4 arrays) vs interleave\n" +
		"[paper: solver ~1.5x avg; interleave hurts init/setup, co-locate does not]\n\n" + body, nil
}

// Fig6 sweeps IRSmk over medium and large meshes.
func (c *Context) Fig6() (string, error) {
	var b strings.Builder
	b.WriteString("Figure 6 — IRSmk speedups, co-locate (29 arrays) vs interleave\n")
	b.WriteString("[paper: up to 6.2x; co-locate beats interleave at fewer nodes]\n")
	for _, input := range []string{"medium", "large"} {
		body, best, err := c.speedupSweep("IRSmk", input, c.figConfigs(),
			optimize.WholeProgram(optimize.Colocate), "co-locate", false)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n%s mesh (max co-locate %.2fx, max interleave %.2fx):\n%s",
			input, best["co-locate"], best["interleave"], body)
	}
	return b.String(), nil
}

// Fig7 sweeps streamcluster with replication of block/point.p.
func (c *Context) Fig7() (string, error) {
	var b strings.Builder
	b.WriteString("Figure 7 — Streamcluster speedups, replicate (block, point.p) vs interleave\n")
	b.WriteString("[paper: similar at 3-4 nodes; replicate wins at fewer nodes/threads]\n")
	for _, input := range []string{"simLarge", "native"} {
		body, _, err := c.speedupSweep("Streamcluster", input, c.figConfigs(),
			optimize.Objects(optimize.Replicate, "block", "point.p"), "replicate", false)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n%s:\n%s", input, body)
	}
	return b.String(), nil
}

// Fig8 sweeps LULESH with co-location of its heap arrays.
func (c *Context) Fig8() (string, error) {
	body, _, err := c.speedupSweep("LULESH", "large", c.figConfigs(),
		optimize.WholeProgram(optimize.Colocate), "co-locate", false)
	if err != nil {
		return "", err
	}
	return "Figure 8 — LULESH speedups, co-locate vs interleave\n" +
		"[paper: co-locate > interleave; no speedup at T16-N4 (classified good)]\n\n" + body, nil
}

// SPStudy measures the interleave-only fix on SP (Section VIII-F).
func (c *Context) SPStudy() (string, error) {
	var b strings.Builder
	b.WriteString("SP case study — static data, whole-program interleave only\n")
	b.WriteString("[paper: up to 1.75x at >8 threads/node with 64 threads]\n\n")
	t := &table{header: []string{"class", "config", "interleave"}}
	for i, cls := range []string{"B", "C"} {
		for _, cfg := range c.figConfigs() {
			cc := cfg
			cc.Input = cls
			cc.Seed = uint64(64000 + i*29)
			e, _ := workloads.ByName("SP")
			cmp, err := optimize.Measure(e.Builder, c.Machine, cc, c.Ecfg,
				optimize.WholeProgram(optimize.Interleave))
			if err != nil {
				return "", err
			}
			t.add(cls, cc.Label(), spd(cmp.Speedup()))
		}
	}
	b.WriteString(t.String())
	b.WriteString("\nnote: SP's arrays are static; the profiler attributes their samples to\n<unattributed>, and interleaving the heap cannot move them. The speedups\nabove interleave the static region itself (numactl --interleave does).\n")
	return b.String(), nil
}

// BlackscholesStudy is the negative control (Section VIII-G).
func (c *Context) BlackscholesStudy() (string, error) {
	e, _ := workloads.ByName("Blackscholes")
	var b strings.Builder
	b.WriteString("Blackscholes case study — negative control\n")
	b.WriteString("[paper: classified good; co-locating `buffer` gains < 1%]\n\n")
	t := &table{header: []string{"config", "detected", "co-locate buffer", "interleave"}}
	for i, cfg := range c.figConfigs() {
		cc := cfg
		cc.Input = "native"
		cc.Seed = uint64(65000 + i*31)
		dn, err := c.Detector.Detect(e.Builder, c.Machine, cc)
		if err != nil {
			return "", err
		}
		base, err := optimize.MeasureBase(e.Builder, c.Machine, cc, c.Ecfg)
		if err != nil {
			return "", err
		}
		colo, err := optimize.MeasureAgainst(base, e.Builder, c.Machine, cc, c.Ecfg,
			optimize.Objects(optimize.Colocate, "buffer"))
		if err != nil {
			return "", err
		}
		inter, err := optimize.MeasureAgainst(base, e.Builder, c.Machine, cc, c.Ecfg,
			optimize.WholeProgram(optimize.Interleave))
		if err != nil {
			return "", err
		}
		t.add(cc.Label(), fmt.Sprintf("%v", dn.Detected), spd(colo.Speedup()), spd(inter.Speedup()))
	}
	b.WriteString(t.String())
	return b.String(), nil
}
