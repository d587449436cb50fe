package engine_test

import (
	"testing"

	"drbw/internal/engine"
	"drbw/internal/pebs"
	"drbw/internal/program"
	"drbw/internal/topology"
	"drbw/internal/workloads"
)

// boundRun profiles one case with an unbounded collector and checks that
// the samples it emitted, threshold-dropped ones included, fit the bound
// the engine reserved from: the buffer never regrew.
func boundRun(t *testing.T, m *topology.Machine, b program.Builder, cfg program.Config, flavor pebs.Flavor) {
	t.Helper()
	p, err := b.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := pebs.NewCollector(pebs.Config{Flavor: flavor, OverheadCycles: 1200}, cfg.Seed+101)
	if _, err := p.Run(engine.Config{Collector: col, Seed: cfg.Seed + 103}); err != nil {
		t.Fatal(err)
	}
	bound := engine.SampleBound(p.Phases, col.Period())
	st := col.Stats()
	if emitted := st.Total + st.DroppedThreshold; emitted > bound {
		t.Errorf("%s %s: emitted %d samples, above the bound %d", b.Name, cfg, emitted, bound)
	}
	if col.Cap() != bound {
		t.Errorf("%s %s: buffer holds %d samples, want the reserved bound %d", b.Name, cfg, col.Cap(), bound)
	}
}

func TestSampleBoundHolds(t *testing.T) {
	m := topology.XeonE5_4650()
	all := workloads.All()
	for _, tn := range [][2]int{{32, 4}, {16, 2}} {
		for i, e := range all {
			b := e.Builder
			cfg := program.Config{Threads: tn[0], Nodes: tn[1], Input: b.Inputs[len(b.Inputs)-1], Seed: uint64(1 + i)}
			boundRun(t, m, b, cfg, pebs.PEBS)
		}
	}
	sc, ok := workloads.ByName("Streamcluster")
	if !ok {
		t.Fatal("Streamcluster missing")
	}
	cfg := program.Config{Threads: 32, Nodes: 4, Input: sc.Builder.Inputs[0], Seed: 7}
	boundRun(t, m, sc.Builder, cfg, pebs.IBS)
	boundRun(t, m, sc.Builder, cfg, pebs.PEBS)
}
