package engine_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/engine"
	"drbw/internal/memsim"
	"drbw/internal/obs"
	"drbw/internal/optimize"
	"drbw/internal/pebs"
	"drbw/internal/program"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// replayBuilder builds a two-phase program whose first touches race across
// nodes. In "touch" every thread scans one shared first-touch object from
// one of seven staggered offsets at one of three element sizes, so threads
// on both nodes claim its pages in the same window and either may get
// there first; in "solve" even threads scan their own slice of a
// grid and odd threads read and write a table at random, and thread 3 idles.
func replayBuilder() program.Builder {
	return program.Builder{Name: "replay", Inputs: []string{"test"}, Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
		as := memsim.NewAddressSpace(m)
		h := alloc.NewHeap(as, 0x10000000)
		site := alloc.Site{Func: "init"}
		ft := memsim.FirstTouchPolicy()
		var bases [3]uint64
		for i, o := range []struct {
			name string
			size uint64
		}{{"shared", 4 << 20}, {"table", 2 << 20}, {"grid", uint64(cfg.Threads) << 18}} {
			id, err := h.Malloc(o.name, o.size, site, ft)
			if err != nil {
				return nil, err
			}
			bases[i] = h.Object(id).Base
		}
		even, err := engine.EvenBinding(m, cfg.Threads, cfg.Nodes)
		if err != nil {
			return nil, err
		}
		// Deal the threads round-robin over the nodes, so a node's threads
		// are not a prefix of the thread order and claim ties between
		// nodes at one step fall to the thread order, not the node order.
		per := cfg.Threads / cfg.Nodes
		bind := make(engine.Binding, cfg.Threads)
		for i := range bind {
			bind[i] = even[i%cfg.Nodes*per+i/cfg.Nodes]
		}
		touch, solve := trace.Phase{Name: "touch"}, trace.Phase{Name: "solve"}
		for i := 0; i < cfg.Threads; i++ {
			touch.Threads = append(touch.Threads, trace.ThreadSpec{
				Stream: &trace.Seq{Base: bases[0] + uint64(i%7)<<16, Len: 3 << 20, Elem: 8 << (i % 3), WriteEvery: 5},
				Ops:    1e6, MLP: 8, WorkCycles: 1,
			})
			var s trace.Stream = &trace.Seq{Base: bases[2] + uint64(i)<<18, Len: 1 << 18, Elem: 8}
			if i%2 == 1 {
				s = &trace.Rand{Base: bases[1], Len: 2 << 20, Elem: 8, WriteFrac: 0.1}
			}
			ops := 5e5
			if i == 3 {
				ops = 0
			}
			solve.Threads = append(solve.Threads, trace.ThreadSpec{Stream: s, Ops: ops, MLP: 4, WorkCycles: 2})
		}
		return &program.Program{
			Machine: m, Space: as, Heap: h, Binding: bind,
			Phases: []trace.Phase{touch, solve},
			CacheConfig: cache.Config{
				L1Size: 8 << 10, L1Assoc: 2,
				L2Size: 32 << 10, L2Assoc: 4,
				L3Size: 1 << 20, L3Assoc: 8,
				LFBEntries:    10,
				PrefetchDepth: 4, PrefetchStreams: 8,
			},
		}, nil
	}}
}

// replayCase is T32-N2 on the E5-4650: sixteen threads per node, so every
// core runs two SMT siblings. A recording names its machine by identity,
// so every run shares one.
var (
	replayCase    = program.Config{Input: "test", Threads: 32, Nodes: 2, Seed: 5}
	replayMachine = topology.XeonE5_4650()
)

func replayConfig() engine.Config {
	return engine.Config{Window: 3072, Warmup: 768, ReservoirSize: 512, Seed: 77}
}

// outcome is everything a run leaves behind that replay must reproduce.
type outcome struct {
	res     *engine.Result
	pages   map[topology.NodeID]int
	samples []pebs.Sample
	// simulated and replayed are the run's engine.window.accesses and
	// engine.window.replayed counter deltas.
	simulated, replayed int64
}

// runCase builds the case, applies tr and runs it: simulating when base is
// nil, replaying base otherwise. sampled attaches a collector.
func runCase(t *testing.T, tr optimize.Transform, base *engine.Result, ecfg engine.Config, sampled bool) outcome {
	t.Helper()
	p, err := replayBuilder().New(replayMachine, replayCase)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		if err := tr(p); err != nil {
			t.Fatal(err)
		}
	}
	var col *pebs.Collector
	if sampled {
		col = pebs.NewCollector(pebs.Config{Period: 1500, OverheadCycles: 900}, 77)
		ecfg.Collector = col
	}
	acc, rep := obs.Default.Counter("engine.window.accesses"), obs.Default.Counter("engine.window.replayed")
	acc0, rep0 := acc.Value(), rep.Value()
	var res *engine.Result
	if base == nil {
		res, err = p.Run(ecfg)
	} else {
		res, err = p.Replay(base, ecfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	o := outcome{res: res, pages: p.Space.ResidencyHistogram(), simulated: acc.Value() - acc0, replayed: rep.Value() - rep0}
	if col != nil {
		o.samples = col.Samples()
	}
	return o
}

func recordBase(t *testing.T, ecfg engine.Config) *engine.Result {
	t.Helper()
	p, err := replayBuilder().New(replayMachine, replayCase)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Record(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Recorded() {
		t.Fatal("Record returned no recording")
	}
	return base
}

// sameOutcome requires the replay to reproduce the fresh simulation: Result,
// first-touch placement and samples.
func sameOutcome(t *testing.T, label string, got, want outcome) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: Result diverges:\nreplay %+v\nfresh  %+v", label, got.res, want.res)
	}
	if !reflect.DeepEqual(got.pages, want.pages) {
		t.Errorf("%s: placement diverges: %v vs %v", label, got.pages, want.pages)
	}
	if !reflect.DeepEqual(got.samples, want.samples) {
		t.Errorf("%s: samples diverge (%d vs %d)", label, len(got.samples), len(want.samples))
	}
}

func setProcs(tb testing.TB, n int) {
	tb.Helper()
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestReplayMatchesSimulation pins record and replay: a run of the case
// under each of the search's placements, replaying the unmodified base
// run's recording, returns what simulating that placement afresh returns —
// budgeted or not, sampled or not, at GOMAXPROCS 1 and 2 — without
// simulating a single access.
func TestReplayMatchesSimulation(t *testing.T) {
	transforms := []struct {
		name string
		tr   optimize.Transform
	}{
		{"shared=interleave", optimize.Objects(optimize.Interleave, "shared")},
		{"grid=co-locate", optimize.Objects(optimize.Colocate, "grid")},
		{"table=replicate", optimize.Objects(optimize.Replicate, "table")},
		{"*=interleave", optimize.WholeProgram(optimize.Interleave)},
	}
	aborted := false
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		base := recordBase(t, replayConfig())
		for _, x := range transforms {
			full := runCase(t, x.tr, nil, replayConfig(), false)
			for _, budget := range []float64{0, full.res.Cycles / 2} {
				for _, sampled := range []bool{false, true} {
					ecfg := replayConfig()
					ecfg.CycleBudget = budget
					label := fmt.Sprintf("GOMAXPROCS=%d %s budget=%.0f sampled=%v", procs, x.name, budget, sampled)
					want := runCase(t, x.tr, nil, ecfg, sampled)
					got := runCase(t, x.tr, base, ecfg, sampled)
					sameOutcome(t, label, got, want)
					if got.simulated != 0 || got.replayed == 0 {
						t.Errorf("%s: replay simulated %d accesses and replayed %d", label, got.simulated, got.replayed)
					}
					if got.replayed != want.simulated {
						t.Errorf("%s: replayed %d accesses, the simulation took %d", label, got.replayed, want.simulated)
					}
					aborted = aborted || got.res.Aborted
				}
			}
		}
	}
	if !aborted {
		t.Error("no budgeted run aborted; the budget comparison is vacuous")
	}
}

// TestReplayIgnoresForeignRecording checks that a recording made under
// another seed or window configuration is never replayed: the run
// simulates and matches a fresh simulation.
func TestReplayIgnoresForeignRecording(t *testing.T) {
	base := recordBase(t, replayConfig())
	tr := optimize.Objects(optimize.Colocate, "grid")
	for _, mod := range []struct {
		name string
		set  func(*engine.Config)
	}{
		{"seed", func(c *engine.Config) { c.Seed++ }},
		{"window", func(c *engine.Config) { c.Window /= 2 }},
		{"warmup", func(c *engine.Config) { c.Warmup = -1 }},
		{"reservoir", func(c *engine.Config) { c.ReservoirSize /= 2 }},
	} {
		ecfg := replayConfig()
		mod.set(&ecfg)
		want := runCase(t, tr, nil, ecfg, true)
		got := runCase(t, tr, base, ecfg, true)
		sameOutcome(t, mod.name, got, want)
		if got.replayed != 0 || got.simulated == 0 {
			t.Errorf("%s: a foreign recording was replayed (%d accesses)", mod.name, got.replayed)
		}
	}
}

// TestReplayedPhaseSpans checks the engine.phase span attribute that tells
// replayed windows from simulated ones.
func TestReplayedPhaseSpans(t *testing.T) {
	base := recordBase(t, replayConfig())
	replayed := func(run func()) []any {
		obs.StartTracing()
		run()
		var got []any
		var walk func([]*obs.SpanTree)
		walk = func(ns []*obs.SpanTree) {
			for _, n := range ns {
				if n.Name == "engine.phase" {
					got = append(got, n.Attrs["replayed"])
				}
				walk(n.Children)
			}
		}
		walk(obs.StopTracing().Tree())
		return got
	}
	sim := replayed(func() { runCase(t, nil, nil, replayConfig(), false) })
	rep := replayed(func() { runCase(t, nil, base, replayConfig(), false) })
	if want := []any{int64(0), int64(0)}; !reflect.DeepEqual(sim, want) {
		t.Errorf("simulated run's phase spans carry replayed=%v, want %v", sim, want)
	}
	if want := []any{int64(1), int64(1)}; !reflect.DeepEqual(rep, want) {
		t.Errorf("replayed run's phase spans carry replayed=%v, want %v", rep, want)
	}
}
