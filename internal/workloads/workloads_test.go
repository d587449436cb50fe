package workloads

import (
	"testing"

	"drbw/internal/engine"
	"drbw/internal/program"
	"drbw/internal/topology"
)

func ecfg(seed uint64) engine.Config {
	return engine.Config{Window: 2048, Warmup: 512, ReservoirSize: 256, Seed: seed}
}

// maxRemoteUtil runs one case and returns the highest peak utilization over
// remote channels and the node-0 controller (the resources remote
// contention saturates).
func maxRemoteUtil(t *testing.T, name, input string, threads, nodes int) float64 {
	t.Helper()
	e, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	m := topology.XeonE5_4650()
	p, err := e.Builder.New(m, program.Config{Threads: threads, Nodes: nodes, Input: input, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(ecfg(42))
	if err != nil {
		t.Fatal(err)
	}
	maxU := 0.0
	for _, ch := range m.RemoteChannels() {
		if u := res.Channel(ch).PeakUtil; u > maxU {
			maxU = u
		}
	}
	if u := res.Channel(topology.Channel{Src: 0, Dst: 0}).PeakUtil; u > maxU {
		maxU = u
	}
	return maxU
}

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("registry has %d benchmarks, want 23", len(all))
	}
	// Table V's cases: inputs × configs summed over its benchmarks. The
	// paper runs 512.
	cases := 0
	for _, e := range all {
		if e.InTableV {
			cases += e.Cases()
		}
	}
	if cases != 512 {
		t.Errorf("Table V cases = %d, want 512", cases)
	}
	good, rmc := 0, 0
	for _, e := range all {
		if e.PaperClass == 0 {
			good++
		} else {
			rmc++
		}
	}
	if good != 17 || rmc != 6 {
		t.Errorf("paper classes: %d good / %d rmc, want 17/6", good, rmc)
	}
	if _, ok := ByName("Streamcluster"); !ok {
		t.Error("ByName failed for Streamcluster")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName invented a benchmark")
	}
	if len(Names()) != 23 {
		t.Error("Names() incomplete")
	}
}

// Every benchmark must build under every input × standard config without
// running (construction exercises allocation, placement and binding).
func TestAllBenchmarksBuildEverywhere(t *testing.T) {
	m := topology.XeonE5_4650()
	for _, e := range All() {
		for _, input := range e.Builder.Inputs {
			for _, cfg := range program.StandardConfigs() {
				c := cfg
				c.Input = input
				c.Seed = 1
				p, err := e.Builder.New(m, c)
				if err != nil {
					t.Fatalf("%s %s: %v", e.Name(), c, err)
				}
				if len(p.Binding) != cfg.Threads {
					t.Fatalf("%s %s: %d bound threads", e.Name(), c, len(p.Binding))
				}
				for _, ph := range p.Phases {
					if len(ph.Threads) != cfg.Threads {
						t.Fatalf("%s %s phase %s: %d thread specs", e.Name(), c, ph.Name, len(ph.Threads))
					}
				}
			}
		}
	}
}

func TestUnknownInputRejected(t *testing.T) {
	m := topology.XeonE5_4650()
	for _, name := range []string{"Streamcluster", "SP", "NW", "IRSmk", "Swaptions"} {
		e, _ := ByName(name)
		if _, err := e.Builder.New(m, program.Config{Threads: 16, Nodes: 2, Input: "bogus"}); err == nil {
			t.Errorf("%s accepted bogus input", name)
		}
	}
}

func TestStreamclusterContends(t *testing.T) {
	if u := maxRemoteUtil(t, "Streamcluster", "native", 32, 4); u < 1.2 {
		t.Errorf("streamcluster native T32-N4 max util %.2f, want saturated", u)
	}
}

func TestBlackscholesDoesNot(t *testing.T) {
	if u := maxRemoteUtil(t, "Blackscholes", "native", 64, 4); u > 0.9 {
		t.Errorf("blackscholes native T64-N4 max util %.2f, want < 0.9", u)
	}
}

func TestSwaptionsNearZeroTraffic(t *testing.T) {
	if u := maxRemoteUtil(t, "Swaptions", "native", 64, 4); u > 0.3 {
		t.Errorf("swaptions util %.2f, want ~0", u)
	}
}

func TestAMGContendsEverywhere(t *testing.T) {
	for _, cfg := range program.StandardConfigs() {
		if u := maxRemoteUtil(t, "AMG2006", "30x30x30", cfg.Threads, cfg.Nodes); u < 1.1 {
			t.Errorf("AMG %s max util %.2f, want saturated", cfg.Label(), u)
		}
	}
}

func TestNWSizeDependence(t *testing.T) {
	if u := maxRemoteUtilWindow(t, "NW", "small", 32, 4, 16384, 8192); u > 1.0 {
		t.Errorf("NW small input util %.2f, want cache-resident", u)
	}
	if u := maxRemoteUtil(t, "NW", "large", 32, 4); u < 1.2 {
		t.Errorf("NW large input util %.2f, want saturated", u)
	}
}

// maxRemoteUtilWindow is maxRemoteUtil with a window large enough to reveal
// cache residency of multi-array working sets.
func maxRemoteUtilWindow(t *testing.T, name, input string, threads, nodes int, window, warmup int) float64 {
	t.Helper()
	e, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	m := topology.XeonE5_4650()
	p, err := e.Builder.New(m, program.Config{Threads: threads, Nodes: nodes, Input: input, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(engine.Config{Window: window, Warmup: warmup, ReservoirSize: 256, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	maxU := 0.0
	for _, ch := range m.RemoteChannels() {
		if u := res.Channel(ch).PeakUtil; u > maxU {
			maxU = u
		}
	}
	if u := res.Channel(topology.Channel{Src: 0, Dst: 0}).PeakUtil; u > maxU {
		maxU = u
	}
	return maxU
}

func TestIRSmkSizeDependence(t *testing.T) {
	// IRSmk-small's 29-array working set needs a window covering two full
	// passes before its cache residency shows.
	if u := maxRemoteUtilWindow(t, "IRSmk", "small", 32, 4, 12288, 6144); u > 1.0 {
		t.Errorf("IRSmk small util %.2f, want friendly", u)
	}
	if u := maxRemoteUtil(t, "IRSmk", "large", 64, 4); u < 1.5 {
		t.Errorf("IRSmk large util %.2f, want heavily saturated", u)
	}
}

func TestSPClassDependence(t *testing.T) {
	if u := maxRemoteUtilWindow(t, "SP", "A", 32, 4, 16384, 8192); u > 1.0 {
		t.Errorf("SP class A util %.2f, want friendly", u)
	}
	if u := maxRemoteUtil(t, "SP", "C", 64, 4); u < 1.2 {
		t.Errorf("SP class C util %.2f, want saturated", u)
	}
	// Class B contends only at dense thread-per-node configs.
	if u := maxRemoteUtil(t, "SP", "B", 16, 4); u > 1.05 {
		t.Errorf("SP class B T16-N4 util %.2f, want below saturation", u)
	}
	if u := maxRemoteUtil(t, "SP", "B", 32, 2); u < 0.9 {
		t.Errorf("SP class B T32-N2 util %.2f, want near saturation", u)
	}
}

func TestLULESHConfigDependence(t *testing.T) {
	// The paper: T16-N4 is classified good; dense configs contend.
	if u := maxRemoteUtil(t, "LULESH", "large", 16, 4); u > 1.05 {
		t.Errorf("LULESH T16-N4 util %.2f, want below saturation", u)
	}
	if u := maxRemoteUtil(t, "LULESH", "large", 64, 4); u < 1.2 {
		t.Errorf("LULESH T64-N4 util %.2f, want saturated", u)
	}
}

func TestFluidanimateBorderline(t *testing.T) {
	u := maxRemoteUtil(t, "Fluidanimate", "native", 64, 4)
	if u < 0.6 || u > 1.15 {
		t.Errorf("fluidanimate native T64-N4 util %.2f, want borderline [0.6,1.15]", u)
	}
}

func TestFTBalancedTranspose(t *testing.T) {
	// FT's all-to-all is balanced: no remote channel should be far above
	// the others at class C T64-N4.
	e, _ := ByName("FT")
	m := topology.XeonE5_4650()
	p, err := e.Builder.New(m, program.Config{Threads: 64, Nodes: 4, Input: "C", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(ecfg(9))
	if err != nil {
		t.Fatal(err)
	}
	var minU, maxU = 1e9, 0.0
	for _, ch := range m.RemoteChannels() {
		u := res.Channel(ch).PeakUtil
		if u < minU {
			minU = u
		}
		if u > maxU {
			maxU = u
		}
	}
	if maxU > 2.5*minU+0.5 {
		t.Errorf("FT transpose imbalanced: remote peak utils in [%.2f, %.2f]", minU, maxU)
	}
}
