package engine

import (
	"math"
	"testing"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/memsim"
	"drbw/internal/pebs"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

const mb = 1 << 20

// smallCaches keeps window simulation fast and guarantees that multi-MB
// scans miss.
func smallCaches() cache.Config {
	return cache.Config{
		L1Size: 8 << 10, L1Assoc: 2,
		L2Size: 32 << 10, L2Assoc: 4,
		L3Size: 1 << 20, L3Assoc: 8,
		LFBEntries:    10,
		PrefetchDepth: 4, PrefetchStreams: 8,
	}
}

func testConfig(seed uint64) Config {
	return Config{Window: 3072, Warmup: 768, ReservoirSize: 512, Seed: seed}
}

// scanWorkload builds t threads, each streaming over its own sliceMB
// megabytes of a shared array, with the array placed by pol.
func scanWorkload(t *testing.T, m *topology.Machine, threads int, pol memsim.Policy, ops float64) (*memsim.AddressSpace, trace.Phase, *alloc.Heap, alloc.ObjectID) {
	t.Helper()
	as := memsim.NewAddressSpace(m)
	h := alloc.NewHeap(as, 0x10000000)
	slice := uint64(2 * mb)
	obj, err := h.Malloc("data", uint64(threads)*slice, alloc.Site{Func: "init"}, pol)
	if err != nil {
		t.Fatal(err)
	}
	base := h.Object(obj).Base
	ph := trace.Phase{Name: "scan"}
	for i := 0; i < threads; i++ {
		ph.Threads = append(ph.Threads, trace.ThreadSpec{
			Stream:     &trace.Seq{Base: base + uint64(i)*slice, Len: slice, Elem: 8},
			Ops:        ops,
			MLP:        8,
			WorkCycles: 1,
		})
	}
	return as, ph, h, obj
}

func runScan(t *testing.T, m *topology.Machine, threads, nodes int, pol memsim.Policy, cfg Config) (*Result, *memsim.AddressSpace) {
	t.Helper()
	return runScanOn(t, m, threads, nodes, pol, cfg, (*Engine).Run)
}

// runScanOn is runScan through the given path (Run or the reference oracle).
func runScanOn(t *testing.T, m *topology.Machine, threads, nodes int, pol memsim.Policy, cfg Config, run runner) (*Result, *memsim.AddressSpace) {
	t.Helper()
	as, ph, _, _ := scanWorkload(t, m, threads, pol, 2e6)
	e, err := New(m, as, smallCaches(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bind, err := EvenBinding(m, threads, nodes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(e, []trace.Phase{ph}, bind)
	if err != nil {
		t.Fatal(err)
	}
	return res, as
}

func TestEvenBinding(t *testing.T) {
	m := topology.XeonE5_4650()
	bind, err := EvenBinding(m, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bind) != 16 {
		t.Fatalf("len = %d", len(bind))
	}
	// Threads 0-3 on node 0, 4-7 on node 1, etc.
	for i, cpu := range bind {
		if want := topology.NodeID(i / 4); m.NodeOfCPU(cpu) != want {
			t.Fatalf("thread %d on node %d, want %d", i, m.NodeOfCPU(cpu), want)
		}
	}
	// Physical cores are preferred before hyper-threads.
	if bind[0] != 0 || bind[4] != 8 {
		t.Errorf("unexpected CPU choice: %v", bind[:8])
	}
	// T64-N4 uses the HT siblings too.
	bind64, err := EvenBinding(m, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	cores := map[topology.CoreID]int{}
	for _, cpu := range bind64 {
		cores[m.CoreOfCPU(cpu)]++
	}
	for c, n := range cores {
		if n != 2 {
			t.Fatalf("core %d has %d threads in T64-N4, want 2", c, n)
		}
	}

	for _, bad := range []struct{ t, n int }{{16, 0}, {16, 5}, {15, 4}, {0, 2}, {200, 4}} {
		if _, err := EvenBinding(m, bad.t, bad.n); err == nil {
			t.Errorf("EvenBinding(%d,%d) accepted", bad.t, bad.n)
		}
	}
}

func TestLocalStreamingIsUncontended(t *testing.T) {
	m := topology.Uniform(4, 4)
	// 4 threads on node 0 scanning node-0 data: local, below capacity.
	res, _ := runScan(t, m, 4, 1, memsim.BindTo(0), testConfig(1))
	p := res.Phases[0]
	if p.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	if p.RemoteDRAMAccesses > 0.02*p.LocalDRAMAccesses {
		t.Errorf("local run has %.0f remote vs %.0f local DRAM accesses",
			p.RemoteDRAMAccesses, p.LocalDRAMAccesses)
	}
	local := topology.Channel{Src: 0, Dst: 0}
	if u := p.Channels[local].PeakUtil; u >= 1 {
		t.Errorf("local channel saturated (%.2f) by 4 threads", u)
	}
	base := m.Latencies().LocalDRAM
	if p.AvgDRAMLatency > 1.6*base {
		t.Errorf("uncontended latency %.0f vs base %.0f", p.AvgDRAMLatency, base)
	}
}

func TestRemoteContentionEmerges(t *testing.T) {
	m := topology.Uniform(4, 4)
	cfg := testConfig(2)
	// 16 threads across 4 nodes, all data on node 0: the classic first-touch
	// pathology.
	contended, _ := runScan(t, m, 16, 4, memsim.BindTo(0), cfg)
	// Fix: each thread's slice local to its node (co-location by interleave
	// of the same total footprint across the nodes the threads use).
	fixed, _ := runScan(t, m, 16, 4, memsim.InterleaveAll(), cfg)

	pc := contended.Phases[0]
	ctrl0 := topology.Channel{Src: 0, Dst: 0}
	if u := pc.Channels[ctrl0].PeakUtil; u < 1.2 {
		t.Errorf("node-0 controller util %.2f, want saturation > 1.2", u)
	}
	baseRemote := m.Latencies().RemoteDRAM
	if pc.AvgDRAMLatency < 1.5*baseRemote {
		t.Errorf("contended DRAM latency %.0f, want > %.0f", pc.AvgDRAMLatency, 1.5*baseRemote)
	}
	if pc.RemoteDRAMAccesses < pc.LocalDRAMAccesses {
		t.Errorf("expected mostly remote accesses, got %.0f remote vs %.0f local",
			pc.RemoteDRAMAccesses, pc.LocalDRAMAccesses)
	}
	speedup := pc.Cycles / fixed.Phases[0].Cycles
	if speedup < 1.5 {
		t.Errorf("interleave speedup %.2f, want > 1.5 under saturation", speedup)
	}
}

func TestColocationBeatsCentralized(t *testing.T) {
	m := topology.Uniform(4, 4)
	cfg := testConfig(3)
	as, ph, h, obj := scanWorkload(t, m, 16, memsim.FirstTouchPolicy(), 2e6)
	// Co-located: pages first-touched in a blocked partition matching the
	// threads' slices (4 threads per node, consecutive slices).
	h.TouchPartitioned(obj, []topology.NodeID{0, 1, 2, 3})
	e, _ := New(m, as, smallCaches(), cfg)
	bind, _ := EvenBinding(m, 16, 4)
	colocated, err := e.Run([]trace.Phase{ph}, bind)
	if err != nil {
		t.Fatal(err)
	}

	central, _ := runScan(t, m, 16, 4, memsim.BindTo(0), cfg)
	if speedup := central.Phases[0].Cycles / colocated.Phases[0].Cycles; speedup < 1.5 {
		t.Errorf("co-location speedup %.2f, want > 1.5", speedup)
	}
	// Co-location eliminates nearly all remote traffic.
	pc := colocated.Phases[0]
	if pc.RemoteDRAMAccesses > 0.1*(pc.RemoteDRAMAccesses+pc.LocalDRAMAccesses) {
		t.Errorf("co-located run still %.0f%% remote",
			100*pc.RemoteDRAMAccesses/(pc.RemoteDRAMAccesses+pc.LocalDRAMAccesses))
	}
}

// chaseWorkload: every thread pointer-chases addresses mapping to one cache
// set of a node-0 region — all accesses reach remote DRAM but MLP is 1.
func TestPointerChaseHighRemoteNoContention(t *testing.T) {
	m := topology.Uniform(4, 4)
	as := memsim.NewAddressSpace(m)
	h := alloc.NewHeap(as, 0x10000000)
	obj, err := h.MallocHuge("bandit", 128*mb, alloc.Site{Func: "bandit"}, memsim.BindTo(0))
	if err != nil {
		t.Fatal(err)
	}
	base := h.Object(obj).Base
	hcfg := smallCaches()
	e, err := New(m, as, hcfg, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Conflict stride: L3 is 1MB 8-way -> 2048 sets * 64B = 128KB.
	stride := uint64(128 << 10)
	ph := trace.Phase{Name: "chase"}
	threads := 12
	for i := 0; i < threads; i++ {
		addrs := make([]uint64, 64)
		for j := range addrs {
			addrs[j] = base + uint64(j)*stride + uint64(i)*64 // same sets, distinct lines
		}
		ph.Threads = append(ph.Threads, trace.ThreadSpec{
			Stream: &trace.Chase{Addrs: addrs},
			Ops:    3e5,
			MLP:    1,
		})
	}
	// Threads on nodes 1..3 (12 threads over 3 nodes would need binding
	// support; use 4 nodes with 12 threads = 3 per node... EvenBinding needs
	// divisibility, 12/4=3).
	bind, err := EvenBinding(m, threads, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run([]trace.Phase{ph}, bind)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases[0]
	totalDRAM := p.LocalDRAMAccesses + p.RemoteDRAMAccesses
	if totalDRAM < 0.5*3e5*float64(threads) {
		t.Fatalf("chase should always reach DRAM; only %.0f of %.0f accesses did",
			totalDRAM, 3e5*float64(threads))
	}
	if p.RemoteDRAMAccesses < 0.6*totalDRAM {
		t.Errorf("chase should be mostly remote, got %.0f/%.0f", p.RemoteDRAMAccesses, totalDRAM)
	}
	// The crucial property: latency-bound traffic does not contend.
	ctrl0 := topology.Channel{Src: 0, Dst: 0}
	if u := p.Channels[ctrl0].PeakUtil; u > 0.7 {
		t.Errorf("pointer chase saturated the controller (%.2f); MLP=1 must not", u)
	}
	base0 := m.Latencies().RemoteDRAM
	if p.AvgDRAMLatency > 1.35*base0 {
		t.Errorf("chase latency %.0f should stay near base %.0f", p.AvgDRAMLatency, base0)
	}
}

func TestSamplingProducesPlausibleSamples(t *testing.T) {
	m := topology.Uniform(4, 4)
	col := pebs.NewCollector(pebs.Config{Period: 500}, 9)
	cfg := testConfig(5)
	cfg.Collector = col
	res, as := runScan(t, m, 8, 2, memsim.BindTo(0), cfg)

	samples := col.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	totalOps := 8 * 2e6
	expect := totalOps / 500
	if f := float64(col.Total()); f < 0.7*expect || f > 1.3*expect {
		t.Errorf("sample count %.0f, want about %.0f", f, expect)
	}
	var remote, mem int
	for _, s := range samples {
		if m.NodeOfCPU(s.CPU) != s.SrcNode {
			t.Fatal("sample SrcNode inconsistent with CPU")
		}
		if !as.Mapped(s.Addr) {
			t.Fatalf("sample address %#x not mapped", s.Addr)
		}
		if s.Latency < pebs.DefaultLatencyThreshold {
			t.Fatalf("sample below latency threshold: %f", s.Latency)
		}
		if s.Time < 0 || s.Time > res.Cycles*1.01 {
			t.Fatalf("sample time %.0f outside run [0,%.0f]", s.Time, res.Cycles)
		}
		if s.RemoteDRAM() {
			remote++
		}
		if s.Level == cache.MEM {
			mem++
		}
	}
	if mem == 0 {
		t.Error("no DRAM-sourced samples despite streaming workload")
	}
	if remote == 0 {
		t.Error("no remote samples despite node-0 placement with threads on 2 nodes")
	}
}

func TestDeterminism(t *testing.T) {
	m := topology.Uniform(2, 4)
	run := func() (float64, int) {
		col := pebs.NewCollector(pebs.Config{Period: 1000}, 11)
		cfg := testConfig(7)
		cfg.Collector = col
		res, _ := runScan(t, m, 8, 2, memsim.BindTo(0), cfg)
		return res.Cycles, col.Total()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("same seed diverged: cycles %.0f vs %.0f, samples %d vs %d", c1, c2, s1, s2)
	}
}

func TestProfilingOverheadBounded(t *testing.T) {
	m := topology.Uniform(2, 4)
	cfg := testConfig(8)
	plain, _ := runScan(t, m, 4, 1, memsim.BindTo(0), cfg)

	col := pebs.NewCollector(pebs.Config{Period: 2000, OverheadCycles: 400}, 8)
	cfgP := testConfig(8)
	cfgP.Collector = col
	profiled, _ := runScan(t, m, 4, 1, memsim.BindTo(0), cfgP)

	over := profiled.Phases[0].Cycles/plain.Phases[0].Cycles - 1
	if over < 0 {
		t.Errorf("profiling made the uncontended run faster (%.1f%%)", 100*over)
	}
	if over > 0.12 {
		t.Errorf("profiling overhead %.1f%%, want <= 12%% like the paper", 100*over)
	}
}

func TestMultiPhaseSequencing(t *testing.T) {
	m := topology.Uniform(2, 2)
	as := memsim.NewAddressSpace(m)
	h := alloc.NewHeap(as, 0x10000000)
	obj, _ := h.Malloc("d", 4*mb, alloc.Site{Func: "f"}, memsim.BindTo(0))
	base := h.Object(obj).Base
	mk := func(name string, ops float64) trace.Phase {
		ph := trace.Phase{Name: name}
		for i := 0; i < 2; i++ {
			ph.Threads = append(ph.Threads, trace.ThreadSpec{
				Stream: &trace.Seq{Base: base + uint64(i)*2*mb, Len: 2 * mb, Elem: 8},
				Ops:    ops, MLP: 4, WorkCycles: 2,
			})
		}
		return ph
	}
	e, _ := New(m, as, smallCaches(), testConfig(10))
	bind, _ := EvenBinding(m, 2, 1)
	res, err := e.Run([]trace.Phase{mk("a", 1e5), mk("b", 2e5)}, bind)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 || res.Phases[0].Name != "a" || res.Phases[1].Name != "b" {
		t.Fatalf("phases wrong: %+v", res.Phases)
	}
	sum := res.Phases[0].Cycles + res.Phases[1].Cycles
	if math.Abs(sum-res.Cycles) > 1e-6*res.Cycles {
		t.Errorf("total %.0f != phase sum %.0f", res.Cycles, sum)
	}
	r := res.Phases[1].Cycles / res.Phases[0].Cycles
	if r < 1.6 || r > 2.4 {
		t.Errorf("2x ops took %.2fx cycles, want ~2x", r)
	}
}

func TestSMTSharingSlowsComputeBound(t *testing.T) {
	m := topology.XeonE5_4650() // has hyper-threading
	as := memsim.NewAddressSpace(m)
	h := alloc.NewHeap(as, 0x10000000)
	obj, _ := h.Malloc("d", 1*mb, alloc.Site{Func: "f"}, memsim.BindTo(0))
	base := h.Object(obj).Base
	phase := func(n int) trace.Phase {
		ph := trace.Phase{Name: "w"}
		for i := 0; i < n; i++ {
			ph.Threads = append(ph.Threads, trace.ThreadSpec{
				Stream:     &trace.Seq{Base: base, Len: 8 << 10, Elem: 8}, // cache resident
				Ops:        1e6,
				MLP:        1,
				WorkCycles: 20, // compute bound
			})
		}
		return ph
	}
	e, _ := New(m, as, smallCaches(), testConfig(12))

	// 16 threads on one node = every core doubly occupied.
	bindHT, _ := EvenBinding(m, 16, 1)
	ht, err := e.Run([]trace.Phase{phase(16)}, bindHT)
	if err != nil {
		t.Fatal(err)
	}
	// 8 threads = one per physical core.
	bind8, _ := EvenBinding(m, 8, 1)
	solo, err := e.Run([]trace.Phase{phase(8)}, bind8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ht.Cycles / solo.Cycles
	if ratio < 1.5 {
		t.Errorf("SMT-shared compute-bound run only %.2fx slower; want ~2x", ratio)
	}
}

func TestRunValidation(t *testing.T) {
	m := topology.Uniform(2, 2)
	as := memsim.NewAddressSpace(m)
	e, _ := New(m, as, smallCaches(), testConfig(1))
	if _, err := e.Run([]trace.Phase{{Name: "x"}}, nil); err == nil {
		t.Error("empty binding accepted")
	}
	if _, err := e.Run([]trace.Phase{{Name: "x", Threads: make([]trace.ThreadSpec, 3)}}, Binding{0, 1}); err == nil {
		t.Error("mismatched thread count accepted")
	}
	if _, err := e.Run([]trace.Phase{{Name: "x", Threads: make([]trace.ThreadSpec, 1)}}, Binding{99}); err == nil {
		t.Error("invalid CPU accepted")
	}
	bad := trace.Phase{Name: "x", Threads: []trace.ThreadSpec{{
		Stream: &trace.Seq{Base: 0x10000000, Len: 4096, Elem: 8}, Ops: 10, MLP: 0.5,
	}}}
	if err := as.Map(0x10000000, 4096, memsim.BindTo(0), false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run([]trace.Phase{bad}, Binding{0}); err == nil {
		t.Error("MLP < 1 accepted")
	}
}

func TestEmptyPhaseRuns(t *testing.T) {
	m := topology.Uniform(2, 2)
	as := memsim.NewAddressSpace(m)
	e, _ := New(m, as, smallCaches(), testConfig(1))
	res, err := e.Run([]trace.Phase{{Name: "idle", Threads: make([]trace.ThreadSpec, 2)}}, Binding{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Errorf("idle phase took %.0f cycles", res.Cycles)
	}
}

func TestResultAggregation(t *testing.T) {
	m := topology.Uniform(2, 4)
	res, _ := runScan(t, m, 8, 2, memsim.BindTo(0), testConfig(13))
	ch := topology.Channel{Src: 1, Dst: 0}
	merged := res.Channel(ch)
	if merged.Bytes != res.Phases[0].Channels[ch].Bytes {
		t.Error("single-phase merge should equal the phase stats")
	}
	if res.RemoteDRAMAccesses() != res.Phases[0].RemoteDRAMAccesses {
		t.Error("remote access aggregation mismatch")
	}
	if res.AvgDRAMLatency() <= 0 {
		t.Error("aggregate DRAM latency missing")
	}
}

func TestConfigWarmupDefaults(t *testing.T) {
	unset := Config{Window: 8192}.withDefaults()
	if unset.Warmup != 8192/4 {
		t.Errorf("unset Warmup = %d, want Window/4 = %d", unset.Warmup, 8192/4)
	}
	zero := Config{Window: 8192, Warmup: -1}.withDefaults()
	if zero.Warmup != 0 {
		t.Errorf("negative Warmup = %d, want 0 (true zero-warmup run)", zero.Warmup)
	}
	explicit := Config{Window: 8192, Warmup: 512}.withDefaults()
	if explicit.Warmup != 512 {
		t.Errorf("explicit Warmup = %d, want 512", explicit.Warmup)
	}
}
