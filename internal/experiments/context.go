// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I-VII, Figures 3-8, and the SP/Blackscholes case
// studies), plus ablations of the design choices DESIGN.md calls out. It is
// shared by cmd/drbw-bench and the root bench_test.go harness.
package experiments

import (
	"fmt"
	"strings"

	"drbw/internal/core"
	"drbw/internal/dtree"
	"drbw/internal/engine"
	"drbw/internal/micro"
	"drbw/internal/topology"
)

// Context holds a trained classifier and the configuration every
// experiment runs under.
type Context struct {
	Machine  *topology.Machine
	Training *core.TrainingData
	Tree     *dtree.Tree
	Detector *core.Detector
	Ecfg     engine.Config
	Quick    bool
}

// NewContext trains DR-BW. quick trains on a quarter of the 192 runs with a
// reduced simulation window; experiments then also shrink their sweeps.
func NewContext(quick bool, seed uint64) (*Context, error) {
	ecfg := core.DefaultEngineConfig(seed)
	if quick {
		// Keep the warmup long enough that cache-resident inputs reveal
		// themselves; shrinking it below one working-set pass turns every
		// friendly small input into a cold-miss stream.
		ecfg.Window = 16384
		ecfg.Warmup = 8192
	}
	set := micro.TrainingSet()
	if quick {
		var reduced []micro.Instance
		for i := 0; i < len(set); i += 4 {
			reduced = append(reduced, set[i])
		}
		set = reduced
	}
	m := topology.XeonE5_4650()
	td, err := core.CollectTraining(m, ecfg, set)
	if err != nil {
		return nil, err
	}
	tree, err := core.TrainClassifier(td, core.DefaultTreeConfig())
	if err != nil {
		return nil, err
	}
	return &Context{
		Machine:  m,
		Training: td,
		Tree:     tree,
		Detector: core.NewDetector(tree, ecfg),
		Ecfg:     ecfg,
		Quick:    quick,
	}, nil
}

// table is a tiny fixed-width table formatter.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func spd(v float64) string { return fmt.Sprintf("%.2fx", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
