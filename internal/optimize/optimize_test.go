package optimize

import (
	"reflect"
	"runtime"
	"testing"

	"drbw/internal/engine"
	"drbw/internal/memsim"
	"drbw/internal/micro"
	"drbw/internal/program"
	"drbw/internal/topology"
)

func ecfg() engine.Config {
	return engine.Config{Window: 2048, Warmup: 512, ReservoirSize: 256, Seed: 21}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		Interleave: "interleave", Colocate: "co-locate", Replicate: "replicate",
		Strategy(9): "Strategy(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d = %q, want %q", int(s), got, want)
		}
	}
}

func TestApplyInterleaveMovesPages(t *testing.T) {
	m := topology.XeonE5_4650()
	p, err := micro.Sumv(micro.BigCentralized, 0).New(m, program.Config{Threads: 16, Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(p, Interleave, nil); err != nil {
		t.Fatal(err)
	}
	hist := p.Space.ResidencyHistogram()
	if len(hist) < 4 {
		t.Fatalf("interleave left pages on %d nodes: %v", len(hist), hist)
	}
	for n, c := range hist {
		if c == 0 {
			t.Errorf("node %d holds no pages after interleave", n)
		}
	}
}

func TestApplyColocateMatchesThreads(t *testing.T) {
	m := topology.XeonE5_4650()
	p, err := micro.Sumv(micro.BigCentralized, 0).New(m, program.Config{Threads: 32, Nodes: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyByName(p, Colocate, "vec_a"); err != nil {
		t.Fatal(err)
	}
	o, _ := p.Object("vec_a")
	// First page should be on node 0 (threads 0-7), last page on node 3.
	if n := p.Space.NodeOf(o.Base); n != 0 {
		t.Errorf("first page on node %d", n)
	}
	if n := p.Space.NodeOf(o.Base + o.Size - 1); n != 3 {
		t.Errorf("last page on node %d", n)
	}
}

func TestApplyReplicate(t *testing.T) {
	m := topology.XeonE5_4650()
	p, err := micro.Sumv(micro.BigCentralized, 0).New(m, program.Config{Threads: 16, Nodes: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyByName(p, Replicate, "vec_a"); err != nil {
		t.Fatal(err)
	}
	o, _ := p.Object("vec_a")
	pol, ok := p.Space.PolicyOf(o.Base)
	if !ok || pol.Kind != memsim.Replicate {
		t.Fatalf("policy after replicate: %+v", pol)
	}
	// Readers on both used nodes get local copies.
	if home, _, _ := p.Space.NewReader().Resolve(o.Base, 1); home != 1 {
		t.Errorf("node-1 reader served from node %d", home)
	}
}

func TestApplyByNameUnknownObject(t *testing.T) {
	m := topology.XeonE5_4650()
	p, _ := micro.Sumv(micro.BigCentralized, 0).New(m, program.Config{Threads: 16, Nodes: 2, Seed: 4})
	if err := ApplyByName(p, Colocate, "no_such_array"); err == nil {
		t.Error("unknown object accepted")
	}
}

func TestMeasureContendedCaseSpeedsUp(t *testing.T) {
	m := topology.XeonE5_4650()
	cfg := program.Config{Threads: 32, Nodes: 4, Seed: 5}
	b := micro.Sumv(micro.BigCentralized, 0)

	inter, err := Measure(b, m, cfg, ecfg(), WholeProgram(Interleave))
	if err != nil {
		t.Fatal(err)
	}
	if inter.Speedup() < 1.3 {
		t.Errorf("interleave speedup %.2f on contended case, want > 1.3", inter.Speedup())
	}
	colo, err := Measure(b, m, cfg, ecfg(), WholeProgram(Colocate))
	if err != nil {
		t.Fatal(err)
	}
	if colo.Speedup() < inter.Speedup() {
		t.Errorf("co-locate (%.2f) should beat interleave (%.2f) on blocked scans",
			colo.Speedup(), inter.Speedup())
	}
	if colo.RemoteReduction < 0.5 {
		t.Errorf("co-locate removed only %.0f%% of remote accesses", 100*colo.RemoteReduction)
	}
	if colo.LatencyReduction <= 0 {
		t.Errorf("co-locate latency reduction %.2f, want positive", colo.LatencyReduction)
	}
}

func TestMeasureFriendlyCaseUnchanged(t *testing.T) {
	m := topology.XeonE5_4650()
	cfg := program.Config{Threads: 16, Nodes: 4, Seed: 6}
	b := micro.Sumv(micro.SmallShared, 0)
	c, err := Measure(b, m, cfg, ecfg(), WholeProgram(Interleave))
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Speedup(); s > 1.05 || s < 0.9 {
		t.Errorf("interleave on cache-resident run changed time by %.2fx", s)
	}
}

func TestActualRMCGroundTruth(t *testing.T) {
	m := topology.XeonE5_4650()
	rmc, _, err := ActualRMC(micro.Sumv(micro.BigCentralized, 0), m,
		program.Config{Threads: 32, Nodes: 4, Seed: 7}, ecfg())
	if err != nil {
		t.Fatal(err)
	}
	if !rmc {
		t.Error("centralized T32-N4 should be ground-truth rmc")
	}
	good, _, err := ActualRMC(micro.Sumv(micro.BigColocated, 0), m,
		program.Config{Threads: 16, Nodes: 4, Seed: 8}, ecfg())
	if err != nil {
		t.Fatal(err)
	}
	if good {
		t.Error("colocated run misdetected as rmc by ground truth")
	}
}

func TestMeasureAllSharesBaseline(t *testing.T) {
	m := topology.XeonE5_4650()
	cfg := program.Config{Threads: 32, Nodes: 4, Seed: 10}
	b := micro.Sumv(micro.BigCentralized, 0)
	ts := []Transform{WholeProgram(Interleave), Objects(Colocate, "vec_a")}

	// Measure every transform against one shared base run, as the search
	// does: the base once, then each variant.
	baseRes, err := MeasureBase(b, m, cfg, ecfg())
	if err != nil {
		t.Fatal(err)
	}
	if baseRes == nil || baseRes.Cycles <= 0 {
		t.Fatal("MeasureBase returned no base run")
	}
	all := make([]Comparison, len(ts))
	for i, tr := range ts {
		if all[i], err = MeasureAgainst(baseRes, b, m, cfg, ecfg(), tr); err != nil {
			t.Fatal(err)
		}
	}
	// The shared-baseline path must reproduce per-transform Measure exactly.
	setProcs(t, 1)
	for i, tr := range ts {
		want, err := Measure(b, m, cfg, ecfg(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(all[i], want) {
			t.Errorf("transform %d: shared-base %+v != Measure %+v", i, all[i], want)
		}
		if all[i].BaseCycles != baseRes.Cycles {
			t.Errorf("transform %d compared against cycles %.0f, base run has %.0f", i, all[i].BaseCycles, baseRes.Cycles)
		}
	}
}

// setProcs sets GOMAXPROCS, which decides whether Measure overlaps its two
// runs, to n for the rest of the test.
func setProcs(tb testing.TB, n int) {
	tb.Helper()
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestMeasureConcurrentMatchesSerial(t *testing.T) {
	m := topology.XeonE5_4650()
	cfg := program.Config{Threads: 32, Nodes: 4, Seed: 11}
	b := micro.Dotv(micro.BigCentralized, 0)
	host := runtime.GOMAXPROCS(0)
	setProcs(t, 1)
	want, err := Measure(b, m, cfg, ecfg(), WholeProgram(Colocate))
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, max(host, 2)) // base and optimized runs overlap
	got, err := Measure(b, m, cfg, ecfg(), WholeProgram(Colocate))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent Measure %+v != serial %+v", got, want)
	}
}

// TestActualRMCKnownCases pins the ground-truth probe on one known-contended
// and one known-clean micro workload, including the comparison it reports.
func TestActualRMCKnownCases(t *testing.T) {
	m := topology.XeonE5_4650()
	rmc, comp, err := ActualRMC(micro.Dotv(micro.BigCentralized, 0), m,
		program.Config{Threads: 32, Nodes: 4, Seed: 12}, ecfg())
	if err != nil {
		t.Fatal(err)
	}
	if !rmc {
		t.Error("centralized dotv T32-N4 should be ground-truth rmc")
	}
	if comp.Speedup() < GroundTruthThreshold {
		t.Errorf("contended probe speedup %.2f below the %.2f threshold", comp.Speedup(), GroundTruthThreshold)
	}
	if comp.RemoteReduction <= 0 {
		t.Errorf("interleave on a centralized run should cut remote accesses, got %.2f", comp.RemoteReduction)
	}

	clean, comp, err := ActualRMC(micro.Sumv(micro.SmallShared, 0), m,
		program.Config{Threads: 16, Nodes: 4, Seed: 13}, ecfg())
	if err != nil {
		t.Fatal(err)
	}
	if clean {
		t.Error("cache-resident sumv misdetected as rmc by ground truth")
	}
	if s := comp.Speedup(); s >= GroundTruthThreshold {
		t.Errorf("clean probe speedup %.2f crossed the threshold", s)
	}
}

func TestPhaseSpeedupsPopulated(t *testing.T) {
	m := topology.XeonE5_4650()
	c, err := Measure(micro.Sumv(micro.BigCentralized, 0), m,
		program.Config{Threads: 16, Nodes: 2, Seed: 9}, ecfg(), WholeProgram(Interleave))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.PhaseSpeedups) != 1 {
		t.Fatalf("phase speedups = %v", c.PhaseSpeedups)
	}
	if c.PhaseSpeedups[0] <= 0 {
		t.Error("phase speedup must be positive")
	}
}
