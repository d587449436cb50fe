package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"drbw/internal/alloc"
	"drbw/internal/memsim"
	"drbw/internal/pebs"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// sharedScanWorkload builds threads that all stream over the SAME address
// range. Under a first-touch policy every page is claimed concurrently by
// threads on every bound node, which makes it the worst case for the
// parallel window's claim arbitration: each page's home is decided by which
// thread's access comes first in the serial interleave order.
func sharedScanWorkload(t *testing.T, m *topology.Machine, threads int, pol memsim.Policy) (*memsim.AddressSpace, []trace.Phase) {
	t.Helper()
	as := memsim.NewAddressSpace(m)
	h := alloc.NewHeap(as, 0x10000000)
	size := uint64(4 * mb)
	obj, err := h.Malloc("shared", size, alloc.Site{Func: "init"}, pol)
	if err != nil {
		t.Fatal(err)
	}
	base := h.Object(obj).Base
	mk := func(name string) trace.Phase {
		ph := trace.Phase{Name: name}
		for i := 0; i < threads; i++ {
			ph.Threads = append(ph.Threads, trace.ThreadSpec{
				Stream:     &trace.Seq{Base: base, Len: size, Elem: 8},
				Ops:        1e6,
				MLP:        8,
				WorkCycles: 1,
			})
		}
		return ph
	}
	// Two phases: the second revisits pages the first already resolved, so
	// the parallel path also proves it observes committed first touches.
	return as, []trace.Phase{mk("touch"), mk("revisit")}
}

// setProcs sets GOMAXPROCS, which sizes the parallel window, to n for the
// rest of the test.
func setProcs(tb testing.TB, n int) {
	tb.Helper()
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

type workerRun struct {
	res     *Result
	samples []pebs.Sample
	pages   map[topology.NodeID]int
}

func runShared(t *testing.T, m *topology.Machine, threads, nodes, procs int, reference bool) workerRun {
	t.Helper()
	setProcs(t, procs)
	as, phases := sharedScanWorkload(t, m, threads, memsim.FirstTouchPolicy())
	cfg := testConfig(77)
	col := pebs.NewCollector(pebs.Config{Period: 1500, OverheadCycles: 900}, 77)
	cfg.Collector = col
	e, err := New(m, as, smallCaches(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bind, err := EvenBinding(m, threads, nodes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pathFor(reference)(e, phases, bind)
	if err != nil {
		t.Fatal(err)
	}
	return workerRun{res: res, samples: col.Samples(), pages: as.ResidencyHistogram()}
}

// sameRun requires got to equal want bit for bit: Result, first-touch
// placement and every sample.
func sameRun(t *testing.T, label string, got, want workerRun) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: Result diverges", label)
	}
	if !reflect.DeepEqual(got.pages, want.pages) {
		t.Errorf("%s: first-touch placement diverges: %v vs %v", label, got.pages, want.pages)
	}
	if len(got.samples) != len(want.samples) {
		t.Fatalf("%s: %d samples, want %d", label, len(got.samples), len(want.samples))
	}
	for i := range got.samples {
		if got.samples[i] != want.samples[i] {
			t.Fatalf("%s: sample %d diverges:\ngot  %+v\nwant %+v", label, i, got.samples[i], want.samples[i])
		}
	}
}

// TestWindowWorkerDeterminism pins the window's guarantee: for a fixed
// seed, every GOMAXPROCS — 1 (the groups one after another), explicit
// parallel widths, and the host's own — produces the Results, samples and
// first-touch placements of the reference interleave. The 32-thread,
// two-node binding puts two threads on each of a node's eight cores.
func TestWindowWorkerDeterminism(t *testing.T) {
	m := topology.XeonE5_4650()
	host := runtime.GOMAXPROCS(0)
	for _, sc := range []struct{ threads, nodes int }{{16, 4}, {32, 2}} {
		ref := runShared(t, m, sc.threads, sc.nodes, 1, true)
		if len(ref.samples) == 0 {
			t.Fatal("no samples collected; the comparison would be vacuous")
		}
		for _, procs := range []int{1, 2, 3, host} {
			got := runShared(t, m, sc.threads, sc.nodes, procs, false)
			sameRun(t, fmt.Sprintf("T%d-N%d GOMAXPROCS=%d", sc.threads, sc.nodes, procs), got, ref)
		}
	}
}

// TestParallelMatchesReferenceFirstTouch checks the parallel window against
// the map-keyed reference oracle on the arbitration-heavy shared first-touch
// scenario, independent of how many cores the host actually has.
func TestParallelMatchesReferenceFirstTouch(t *testing.T) {
	m := topology.XeonE5_4650()
	par := runShared(t, m, 16, 4, 4, false)
	ref := runShared(t, m, 16, 4, 1, true)
	sameRun(t, "GOMAXPROCS=4", par, ref)
}

// TestWindowSingleNodeMatchesReference runs a window whose threads all sit
// on one node — a single group, nothing to shard — at GOMAXPROCS 4 and 1,
// and requires the reference interleave's result from both.
func TestWindowSingleNodeMatchesReference(t *testing.T) {
	m := topology.XeonE5_4650()
	ref := runShared(t, m, 8, 1, 1, true)
	for _, procs := range []int{4, 1} {
		sameRun(t, fmt.Sprintf("GOMAXPROCS=%d", procs), runShared(t, m, 8, 1, procs, false), ref)
	}
}

// TestFirstTouchClaimKeepsEarliestAccess pins the claim order under the
// thread-major accounting stage. Two threads per node hit random lines of
// one first-touch array, so within a chunk a node's second thread often
// reaches a page before its first thread does, with the other node's
// access in between. The claim must keep the group's earliest access, or
// such pages go to the wrong node.
func TestFirstTouchClaimKeepsEarliestAccess(t *testing.T) {
	m := topology.XeonE5_4650()
	const base = 0x10000000
	run := func(procs int, ref bool) workerRun {
		setProcs(t, procs)
		as := memsim.NewAddressSpace(m)
		if err := as.Map(base, 4<<20, memsim.FirstTouchPolicy(), false); err != nil {
			t.Fatal(err)
		}
		ph := trace.Phase{Name: "random"}
		for i := 0; i < 4; i++ {
			ph.Threads = append(ph.Threads, trace.ThreadSpec{
				Stream: &trace.Rand{Base: base, Len: 4 << 20, Elem: 8},
				Ops:    1e6, MLP: 8, WorkCycles: 1,
			})
		}
		e, err := New(m, as, smallCaches(), testConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		bind, err := EvenBinding(m, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pathFor(ref)(e, []trace.Phase{ph}, bind)
		if err != nil {
			t.Fatal(err)
		}
		return workerRun{res: res, pages: as.ResidencyHistogram()}
	}
	ref := run(1, true)
	for _, procs := range []int{1, 2} {
		sameRun(t, fmt.Sprintf("GOMAXPROCS=%d", procs), run(procs, false), ref)
	}
}
