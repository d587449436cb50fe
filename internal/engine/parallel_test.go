package engine

import (
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

// TestWindowWorkerDeterminism pins the tentpole guarantee: for a fixed
// seed, every window width produces bit-identical Results, samples, and
// first-touch placements — GOMAXPROCS=1 (the exact serial path), explicit
// parallel widths, and the host's own GOMAXPROCS.
func TestWindowWorkerDeterminism(t *testing.T) {
	m := topology.XeonE5_4650()
	host := runtime.GOMAXPROCS(0)
	base := runShared(t, m, 16, 4, 1, false)
	if len(base.samples) == 0 {
		t.Fatal("no samples collected; the comparison would be vacuous")
	}
	for _, workers := range []int{2, 3, host} {
		got := runShared(t, m, 16, 4, workers, false)
		if !reflect.DeepEqual(got.res, base.res) {
			t.Errorf("workers=%d: Result diverges from serial", workers)
		}
		if !reflect.DeepEqual(got.pages, base.pages) {
			t.Errorf("workers=%d: first-touch placement diverges: %v vs %v", workers, got.pages, base.pages)
		}
		if len(got.samples) != len(base.samples) {
			t.Fatalf("workers=%d: %d samples, serial %d", workers, len(got.samples), len(base.samples))
		}
		for i := range got.samples {
			if got.samples[i] != base.samples[i] {
				t.Fatalf("workers=%d: sample %d diverges:\nparallel %+v\nserial   %+v",
					workers, i, got.samples[i], base.samples[i])
			}
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
	if !reflect.DeepEqual(par.res, ref.res) {
		t.Error("parallel Result diverges from the reference oracle")
	}
	if !reflect.DeepEqual(par.pages, ref.pages) {
		t.Errorf("parallel first-touch placement diverges from reference: %v vs %v", par.pages, ref.pages)
	}
	if len(par.samples) != len(ref.samples) {
		t.Fatalf("%d parallel samples, reference %d", len(par.samples), len(ref.samples))
	}
	for i := range par.samples {
		if par.samples[i] != ref.samples[i] {
			t.Fatalf("sample %d diverges:\nparallel  %+v\nreference %+v", i, par.samples[i], ref.samples[i])
		}
	}
}

// TestWorkersSingleNodeFallsBackSerial checks the grouping heuristic: all
// threads on one node leaves nothing to shard, and results still match.
func TestWorkersSingleNodeFallsBackSerial(t *testing.T) {
	m := topology.XeonE5_4650()
	a := runShared(t, m, 8, 1, 4, false)
	b := runShared(t, m, 8, 1, 1, false)
	if !reflect.DeepEqual(a.res, b.res) {
		t.Error("single-node run diverges between GOMAXPROCS=4 and GOMAXPROCS=1")
	}
}
