package engine

import (
	"testing"

	"drbw/internal/alloc"
	"drbw/internal/memsim"
	"drbw/internal/pebs"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// remoteScanFromNode builds n threads on one specific node scanning node-0
// data and returns the run result.
func remoteScanFromNode(t *testing.T, m *topology.Machine, node topology.NodeID, threads int, seed uint64) *Result {
	t.Helper()
	as := memsim.NewAddressSpace(m)
	h := alloc.NewHeap(as, 0x10000000)
	slice := uint64(2 * mb)
	obj, err := h.Malloc("data", uint64(threads)*slice, alloc.Site{Func: "init"}, memsim.BindTo(0))
	if err != nil {
		t.Fatal(err)
	}
	base := h.Object(obj).Base
	cpus := m.CPUsOfNode(node)
	if threads > len(cpus) {
		t.Fatalf("node %d has %d CPUs, need %d", node, len(cpus), threads)
	}
	ph := trace.Phase{Name: "scan"}
	var bind Binding
	for i := 0; i < threads; i++ {
		bind = append(bind, cpus[i])
		ph.Threads = append(ph.Threads, trace.ThreadSpec{
			Stream:     &trace.Seq{Base: base + uint64(i)*slice, Len: slice, Elem: 8},
			Ops:        1e6,
			MLP:        8,
			WorkCycles: 1,
		})
	}
	e, err := New(m, as, smallCaches(), testConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run([]trace.Phase{ph}, bind)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLatencyMonotoneInPressure: adding threads to a contended channel
// never lowers the effective DRAM latency.
func TestLatencyMonotoneInPressure(t *testing.T) {
	m := topology.XeonE5_4650()
	var prev float64
	for _, threads := range []int{1, 2, 4, 8} {
		res := remoteScanFromNode(t, m, 1, threads, 50)
		lat := res.AvgDRAMLatency()
		if lat < prev-1 { // -1: tolerate numerical wiggle
			t.Errorf("latency dropped from %.0f to %.0f going to %d threads", prev, lat, threads)
		}
		prev = lat
	}
	// And it genuinely inflates at the high end.
	if prev < 1.3*m.Latencies().RemoteDRAM {
		t.Errorf("8 remote streamers latency %.0f; expected inflation", prev)
	}
}

// TestAsymmetricLinksMatter: the E5 preset's 1->0 link is narrower than
// 2->0; the same pressure from node 1 contends harder.
func TestAsymmetricLinksMatter(t *testing.T) {
	m := topology.XeonE5_4650()
	if m.Bandwidth(topology.Channel{Src: 1, Dst: 0}) >= m.Bandwidth(topology.Channel{Src: 2, Dst: 0}) {
		t.Skip("preset no longer asymmetric on 1->0 vs 2->0")
	}
	from1 := remoteScanFromNode(t, m, 1, 4, 51)
	from2 := remoteScanFromNode(t, m, 2, 4, 51)
	u1 := from1.Channel(topology.Channel{Src: 1, Dst: 0}).PeakUtil
	u2 := from2.Channel(topology.Channel{Src: 2, Dst: 0}).PeakUtil
	if u1 <= u2 {
		t.Errorf("narrow link utilization %.2f should exceed wide link %.2f", u1, u2)
	}
	if from1.Cycles <= from2.Cycles {
		t.Errorf("same work over the narrow link (%.0f cycles) should run slower than the wide one (%.0f)",
			from1.Cycles, from2.Cycles)
	}
}

// TestThroughputConservation: bytes carried over the node-0 controller must
// equal the workload's total DRAM traffic regardless of contention.
func TestThroughputConservation(t *testing.T) {
	m := topology.XeonE5_4650()
	res := remoteScanFromNode(t, m, 1, 8, 52)
	ctrl := res.Channel(topology.Channel{Src: 0, Dst: 0})
	link := res.Channel(topology.Channel{Src: 1, Dst: 0})
	// Remote traffic crosses both resources: byte counts match.
	if diff := ctrl.Bytes - link.Bytes; diff > 0.01*ctrl.Bytes || diff < -0.01*ctrl.Bytes {
		t.Errorf("controller carried %.0f bytes, link %.0f; remote flows must cross both", ctrl.Bytes, link.Bytes)
	}
	if ctrl.Bytes <= 0 {
		t.Fatal("no traffic accounted")
	}
	// 8 threads x 1e6 ops x ~1/8 line per op x 64B ~= 64 MB; allow a wide
	// band for prefetcher effects.
	total := 8.0 * 1e6 / 8 * 64
	if ctrl.Bytes < 0.5*total || ctrl.Bytes > 1.5*total {
		t.Errorf("controller bytes %.0f outside the plausible band around %.0f", ctrl.Bytes, total)
	}
}

// TestFasterLinkFasterFinish: with no contention, execution time equals
// ops/rate and is independent of which remote node runs the thread.
func TestSingleThreadRemoteIndependence(t *testing.T) {
	m := topology.XeonE5_4650()
	a := remoteScanFromNode(t, m, 1, 1, 53)
	b := remoteScanFromNode(t, m, 3, 1, 53)
	ratio := a.Cycles / b.Cycles
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("single uncontended thread timing differs by %.2fx across nodes", ratio)
	}
}

// TestIBSOverheadScalesWithComputeWork: IBS interrupts fire per micro-op,
// so a compute-heavy thread pays more profiling overhead than under PEBS.
func TestIBSOverheadScalesWithComputeWork(t *testing.T) {
	m := topology.Uniform(2, 4)
	overheadFor := func(flavor pebs.Flavor) float64 {
		as := memsim.NewAddressSpace(m)
		h := alloc.NewHeap(as, 0x10000000)
		obj, err := h.Malloc("d", 2*mb, alloc.Site{Func: "f"}, memsim.BindTo(0))
		if err != nil {
			t.Fatal(err)
		}
		base := h.Object(obj).Base
		mk := func(col *pebs.Collector) float64 {
			ph := trace.Phase{Name: "w", Threads: []trace.ThreadSpec{{
				Stream:     &trace.Seq{Base: base, Len: 2 * mb, Elem: 8},
				Ops:        1e6,
				MLP:        4,
				WorkCycles: 12, // compute heavy
			}}}
			cfg := testConfig(91)
			cfg.Collector = col
			e, err := New(m, as, smallCaches(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run([]trace.Phase{ph}, Binding{0})
			if err != nil {
				t.Fatal(err)
			}
			return res.Cycles
		}
		base0 := mk(nil)
		prof := mk(pebs.NewCollector(pebs.Config{Period: 2000, OverheadCycles: 1200, Flavor: flavor}, 9))
		return prof/base0 - 1
	}
	pebsOver := overheadFor(pebs.PEBS)
	ibsOver := overheadFor(pebs.IBS)
	if ibsOver <= pebsOver {
		t.Errorf("IBS overhead %.3f should exceed PEBS %.3f on compute-heavy code", ibsOver, pebsOver)
	}
}

// TestHostileOpsReserveCapped pins that the collector reservation, sized
// from untrusted workload specs, stays under the collector's ceiling: one
// thread claims 1e15 accesses under an unbounded collector. The run
// reserves before it checks any phase, so a threadless first phase stops
// it with an error before the hostile phase integrates.
func TestHostileOpsReserveCapped(t *testing.T) {
	m := topology.XeonE5_4650()
	as, ph, _, _ := scanWorkload(t, m, 16, memsim.BindTo(0), 2e6)
	ph.Threads[0].Ops = 1e15
	bind, err := EvenBinding(m, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	col := pebs.NewCollector(pebs.Config{}, 1)
	cfg := testConfig(8)
	cfg.Collector = col
	e, err := New(m, as, smallCaches(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	phases := []trace.Phase{{Name: "threadless"}, ph}
	if _, err := e.Run(phases, bind); err == nil {
		t.Fatal("a phase without the binding's threads ran")
	}
	if bound := sampleBound(phases, col.Period()); bound < 1e11 {
		t.Fatalf("bound %d does not reflect the hostile Ops", bound)
	}
	// 1<<18 is pebs' reservation ceiling for a collector without MaxKept.
	if c := col.Cap(); c != 1<<18 {
		t.Errorf("hostile spec reserved %d samples, want the 1<<18 ceiling", c)
	}
}
