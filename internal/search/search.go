// Package search closes DR-BW's loop: from a detection (diagnosed objects
// and retained samples) it finds the placement fix to apply, instead of
// leaving the choice to the analyst as the paper does.
//
// The search is a branch-and-bound over candidate placements:
//
//  1. Enumerate — the diagnoser's top-CF objects, each assigned one of
//     {keep, interleave, co-locate, replicate}, singly and in combination,
//     plus the whole-program interleave probe.
//  2. Score — an analytic cost function ranks every candidate from the
//     detection's retained samples and the machine topology alone; no
//     simulation. The score combines distance-weighted locality with a
//     convex channel-pressure term that punishes piling traffic onto few
//     channels (see score()).
//  3. Simulate — only the top-scoring frontier runs in the simulator, in
//     one fan-out over core.ParallelForWorker, every candidate to
//     completion. A placement never changes which cache level serves an
//     access, so the candidates replay the shared baseline's window
//     recording (engine.Engine.Replay) instead of simulating the caches
//     again: only the placement-dependent accounting and the integration
//     run per candidate. The baseline itself is measured exactly once.
//  4. Pick — the best candidate is the minimum (cycles, canonical key) over
//     the simulated outcomes.
//
// Determinism: candidate order is (analytic score, canonical key), every
// simulated candidate runs to completion whichever worker runs it, and the
// pick breaks cycle ties by canonical key. The chosen placement is
// therefore bit-identical at any GOMAXPROCS.
package search

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"drbw/internal/cache"
	"drbw/internal/core"
	"drbw/internal/diagnose"
	"drbw/internal/engine"
	"drbw/internal/obs"
	"drbw/internal/optimize"
	"drbw/internal/pebs"
	"drbw/internal/program"
	"drbw/internal/topology"
)

// Assignment fixes one object's placement strategy in a candidate.
type Assignment struct {
	Object   string
	Strategy optimize.Strategy
}

// Candidate is one placement under consideration: per-object strategy
// assignments (sorted by object name), or the whole-program interleave.
type Candidate struct {
	Assignments []Assignment
	// WholeProgramInterleave models `numactl --interleave=all`, the paper's
	// ground-truth probe; Assignments is empty when set.
	WholeProgramInterleave bool
}

// Key is the candidate's canonical identity: assignments joined in object
// order. Two candidates are the same placement iff their keys are equal,
// and all tie-breaking in the search orders by this string.
func (c Candidate) Key() string {
	if c.WholeProgramInterleave {
		return "*=interleave"
	}
	parts := make([]string, len(c.Assignments))
	for i, a := range c.Assignments {
		parts[i] = a.Object + "=" + a.Strategy.String()
	}
	return strings.Join(parts, ",")
}

// String renders the candidate for reports.
func (c Candidate) String() string {
	if c.WholeProgramInterleave {
		return "interleave whole program"
	}
	return c.Key()
}

// Transform builds the optimize.Transform that applies this candidate to a
// freshly built program.
func (c Candidate) Transform() optimize.Transform {
	if c.WholeProgramInterleave {
		return optimize.WholeProgram(optimize.Interleave)
	}
	as := c.Assignments
	return func(p *program.Program) error {
		for _, a := range as {
			if err := optimize.ApplyByName(p, a.Strategy, a.Object); err != nil {
				return err
			}
		}
		return nil
	}
}

// Input is everything the search needs about one detected case. Report
// and Samples normally come from a core.Detection (see FromDetection).
type Input struct {
	Builder program.Builder
	Machine *topology.Machine
	Cfg     program.Config
	// Report is the case's diagnosis; the enumeration places its top-CF
	// objects.
	Report *diagnose.Report
	// Samples are the retained profile samples the analytic score counts
	// traffic from.
	Samples []pebs.Sample
}

const (
	// cover is the CF mass the top objects must cover.
	cover = 0.9
	// localityWeight balances the locality term against channel pressure
	// in the analytic score.
	localityWeight = 0.5
)

// Config tunes the search.
type Config struct {
	// TopObjects caps how many of the diagnoser's top-CF objects the
	// enumeration draws from. <= 0 uses 3.
	TopObjects int
	// Frontier is how many top-scoring candidates are simulated. 0 uses 12;
	// negative simulates every candidate (exhaustive — the benchmark
	// baseline).
	Frontier int
	// Baseline, when non-nil, is used as the unmodified case's measurement
	// instead of simulating it. Callers supply a prior MeasureBase result
	// for the identical case and engine config; because runs are
	// bit-reproducible, the search outcome is identical to remeasuring.
	// A baseline without a window recording is measured again, recording,
	// since every candidate replays the baseline's recording.
	Baseline *engine.Result
}

func (c Config) withDefaults() Config {
	if c.TopObjects <= 0 {
		c.TopObjects = 3
	}
	if c.Frontier == 0 {
		c.Frontier = 12
	}
	return c
}

// Outcome is one candidate's fate in the search.
type Outcome struct {
	Candidate Candidate
	// Score is the analytic cost (lower is better) that ranked the
	// candidate before any simulation.
	Score float64
	// Simulated is false for candidates pruned by the frontier cut.
	Simulated bool
	Cycles    float64
	// Comparison against the shared baseline; valid when Simulated.
	Comparison optimize.Comparison
}

// Result is the search outcome.
type Result struct {
	// Baseline is the unmodified case's single shared measurement.
	Baseline *engine.Result
	// Report is the diagnosis the enumeration drew from.
	Report *diagnose.Report
	// Outcomes lists every candidate in analytic-score order.
	Outcomes []Outcome
	// Best points into Outcomes at the fastest simulated candidate; nil
	// when none was simulated (empty enumeration).
	Best *Outcome
	// Explored counts simulated candidates; Pruned those cut by the
	// frontier.
	Explored, Pruned int
	// AbortedRuns is always 0: every simulated candidate runs to
	// completion. Its only reader is the benchmark harness's per-layer
	// search.aborted metric (bench/layers.go); it goes with that metric in
	// ROADMAP item 1's bench refresh.
	AbortedRuns int
}

// Speedup is the baseline-to-best cycle ratio (>1: the fix helps).
func (r *Result) Speedup() float64 {
	if r.Best == nil || r.Best.Cycles == 0 {
		return 0
	}
	return r.Baseline.Cycles / r.Best.Cycles
}

// FromDetection runs the search for a detected case, reusing the
// detection's diagnosis and retained samples — no re-profiling and no
// second diagnosis.
func FromDetection(dn *core.Detection, ecfg engine.Config, cfg Config) (*Result, error) {
	return Run(Input{
		Builder: dn.Builder(),
		Machine: dn.Program.Machine,
		Cfg:     dn.Cfg,
		Report:  dn.Diagnose(),
		Samples: dn.Samples,
	}, ecfg, cfg)
}

// Run executes the full search: enumerate over the diagnosis, score, then
// simulate the frontier. ecfg configures every simulation, baseline and
// candidates alike.
func Run(in Input, ecfg engine.Config, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	m := in.Machine
	if m == nil {
		return nil, fmt.Errorf("search: no machine")
	}
	rep := in.Report
	if rep == nil {
		return nil, fmt.Errorf("search: no diagnosis")
	}
	top := rep.Top(cover)
	if len(top) > cfg.TopObjects {
		top = top[:cfg.TopObjects]
	}

	cands := enumerate(top, cfg.TopObjects)
	model := newCostModel(m, in.Samples, top)
	outs := make([]Outcome, len(cands))
	for i, c := range cands {
		outs[i] = Outcome{Candidate: c, Score: model.score(c)}
	}
	sort.Slice(outs, func(i, j int) bool {
		if outs[i].Score != outs[j].Score {
			return outs[i].Score < outs[j].Score
		}
		return outs[i].Candidate.Key() < outs[j].Candidate.Key()
	})

	frontier := len(outs)
	if cfg.Frontier > 0 && cfg.Frontier < frontier {
		frontier = cfg.Frontier
	}

	sp := obs.BeginSpan("search.run")
	sp.SetInt("candidates", int64(len(outs)))
	sp.SetInt("frontier", int64(frontier))
	defer sp.End()

	// The shared baseline: measured exactly once, never per candidate —
	// or not at all when the caller carries one over with its recording.
	base := cfg.Baseline
	if !base.Recorded() {
		var err error
		if base, err = optimize.MeasureBase(in.Builder, m, in.Cfg, ecfg); err != nil {
			return nil, err
		}
	}
	res := &Result{Baseline: base, Report: rep, Outcomes: outs, Explored: frontier, Pruned: len(outs) - frontier}

	// When a tracer is installed, each candidate run is a "search.candidate"
	// child span carrying its canonical key and worker id.
	errs := make([]error, frontier)
	core.ParallelForWorker(frontier, func(i, w int) {
		cs := sp.Child("search.candidate")
		cs.SetStr("key", outs[i].Candidate.Key())
		cs.SetInt("worker", int64(w))
		errs[i] = simulate(&outs[i], in, ecfg, base)
		cs.SetFloat("cycles", outs[i].Cycles)
		cs.End()
	})
	for _, e := range errs {
		if e != nil {
			return nil, obs.FlightFailure("search.run", e)
		}
	}

	for i := range outs[:frontier] {
		o := &outs[i]
		if res.Best == nil || o.Cycles < res.Best.Cycles ||
			(o.Cycles == res.Best.Cycles && o.Candidate.Key() < res.Best.Candidate.Key()) {
			res.Best = o
		}
	}
	return res, nil
}

// simulate runs one candidate, replaying base's window recording, and
// records its outcome.
func simulate(o *Outcome, in Input, ecfg engine.Config, base *engine.Result) error {
	p, err := in.Builder.New(in.Machine, in.Cfg)
	if err != nil {
		return err
	}
	if err := o.Candidate.Transform()(p); err != nil {
		return err
	}
	r, err := p.Replay(base, ecfg)
	if err != nil {
		return err
	}
	o.Simulated = true
	o.Cycles = r.Cycles
	o.Comparison = optimize.Compare(base, r)
	return nil
}

// enumerate builds the candidate set: every assignment of the strategies
// {keep, interleave, co-locate, replicate} to the top objects — all-keep
// excluded, at most maxCombo non-keep assignments — plus the whole-program
// interleave.
func enumerate(top []diagnose.ObjectCF, maxCombo int) []Candidate {
	names := make([]string, len(top))
	for i, o := range top {
		names[i] = o.Object.Name
	}
	sort.Strings(names)

	strategies := []optimize.Strategy{optimize.Interleave, optimize.Colocate, optimize.Replicate}
	var out []Candidate
	// Each object takes one of 4 states: 0 = keep, 1..3 = a strategy.
	total := 1
	for range names {
		total *= 4
	}
	for code := 1; code < total; code++ {
		var as []Assignment
		c := code
		for _, n := range names {
			if st := c & 3; st != 0 {
				as = append(as, Assignment{Object: n, Strategy: strategies[st-1]})
			}
			c >>= 2
		}
		if len(as) == 0 || len(as) > maxCombo {
			continue
		}
		out = append(out, Candidate{Assignments: as})
	}
	out = append(out, Candidate{WholeProgramInterleave: true})
	return out
}

// costModel holds the per-object traffic statistics the analytic score is
// computed from. All traffic is counted in DRAM (cache.MEM) samples; cache
// hits generate no channel traffic.
type costModel struct {
	m  *topology.Machine
	nn int
	// fixed is per-channel traffic of everything outside the top objects —
	// it is the same under every candidate.
	fixed []float64
	// recorded[k], bySrc[k], writesBySrc[k] describe top object k: its
	// observed per-channel traffic, and its per-source-node totals and
	// write counts (for the strategy predictions).
	recorded    [][]float64
	bySrc       [][]float64
	writesBySrc [][]float64
	// rowTotal is all traffic per source node (whole-program interleave).
	rowTotal []float64
	// dist is the per-channel latency distance: 1 local, the remote/local
	// unloaded-latency ratio for remote channels.
	dist []float64
	// cap is each channel's share of total machine bandwidth.
	cap []float64

	byName map[string]int
}

func newCostModel(m *topology.Machine, samples []pebs.Sample, top []diagnose.ObjectCF) *costModel {
	nc := m.NumChannels()
	cm := &costModel{
		m: m, nn: m.Nodes(),
		fixed:    make([]float64, nc),
		rowTotal: make([]float64, m.Nodes()),
		dist:     make([]float64, nc),
		cap:      make([]float64, nc),
		byName:   map[string]int{},
	}
	type span struct{ base, end uint64 }
	spans := make([]span, len(top))
	for k, o := range top {
		cm.byName[o.Object.Name] = k
		spans[k] = span{o.Object.Base, o.Object.Base + o.Object.Size}
		cm.recorded = append(cm.recorded, make([]float64, nc))
		cm.bySrc = append(cm.bySrc, make([]float64, m.Nodes()))
		cm.writesBySrc = append(cm.writesBySrc, make([]float64, m.Nodes()))
	}
	for i := range samples {
		s := &samples[i]
		if s.Level != cache.MEM {
			continue
		}
		ci := m.ChannelIndex(s.Channel())
		cm.rowTotal[s.SrcNode]++
		obj := -1
		for k, sp := range spans {
			if s.Addr >= sp.base && s.Addr < sp.end {
				obj = k
				break
			}
		}
		if obj < 0 {
			cm.fixed[ci]++
			continue
		}
		cm.recorded[obj][ci]++
		cm.bySrc[obj][s.SrcNode]++
		if s.Write {
			cm.writesBySrc[obj][s.SrcNode]++
		}
	}
	lat := m.Latencies()
	remoteDist := 1.0
	if lat.LocalDRAM > 0 {
		remoteDist = lat.RemoteDRAM / lat.LocalDRAM
	}
	bwTotal := 0.0
	bw := m.BandwidthTable()
	for ci := 0; ci < nc; ci++ {
		bwTotal += bw[ci]
	}
	for ci := 0; ci < nc; ci++ {
		if m.ChannelAt(ci).Local() {
			cm.dist[ci] = 1
		} else {
			cm.dist[ci] = remoteDist
		}
		cm.cap[ci] = bw[ci] / bwTotal
	}
	return cm
}

// score is the analytic cost of a candidate, lower is better:
//
//	score = Σ_c frac_c²/cap_c  +  w · Σ_c frac_c·dist_c
//
// where frac_c is the channel's share of predicted traffic, cap_c its
// share of machine bandwidth and w is localityWeight. The first term is a
// convex pressure measure: it is minimized when traffic spreads in
// proportion to bandwidth and grows quadratically as traffic piles onto few
// channels — the remote-bandwidth saturation DR-BW detects. The second charges each access its latency
// distance, so all-remote placements (plain interleave) rank below
// data-computation co-location exactly as in the paper's Table IV. Channel
// iteration order is fixed (ChannelIndex order), so the floating-point sum
// is reproducible.
//
// Predicted traffic per strategy: keep uses the recorded channels;
// interleave spreads each source's accesses uniformly over all nodes;
// co-locate makes them local; replicate makes reads local but broadcasts
// every write to all nodes (the consistency cost that rules it out for
// write-shared data).
func (cm *costModel) score(c Candidate) float64 {
	nc := len(cm.fixed)
	t := make([]float64, nc)
	if c.WholeProgramInterleave {
		for src := 0; src < cm.nn; src++ {
			share := cm.rowTotal[src] / float64(cm.nn)
			for dst := 0; dst < cm.nn; dst++ {
				t[cm.index(src, dst)] += share
			}
		}
	} else {
		copy(t, cm.fixed)
		assigned := make([]bool, len(cm.recorded))
		for _, a := range c.Assignments {
			k, ok := cm.byName[a.Object]
			if !ok {
				continue
			}
			assigned[k] = true
			switch a.Strategy {
			case optimize.Interleave:
				for src := 0; src < cm.nn; src++ {
					share := cm.bySrc[k][src] / float64(cm.nn)
					for dst := 0; dst < cm.nn; dst++ {
						t[cm.index(src, dst)] += share
					}
				}
			case optimize.Colocate:
				for src := 0; src < cm.nn; src++ {
					t[cm.index(src, src)] += cm.bySrc[k][src]
				}
			case optimize.Replicate:
				for src := 0; src < cm.nn; src++ {
					t[cm.index(src, src)] += cm.bySrc[k][src] - cm.writesBySrc[k][src]
					for dst := 0; dst < cm.nn; dst++ {
						t[cm.index(src, dst)] += cm.writesBySrc[k][src]
					}
				}
			}
		}
		for k, done := range assigned {
			if !done {
				for ci := 0; ci < nc; ci++ {
					t[ci] += cm.recorded[k][ci]
				}
			}
		}
	}
	total := 0.0
	for ci := 0; ci < nc; ci++ {
		total += t[ci]
	}
	if total == 0 {
		return math.Inf(1)
	}
	pressure, locality := 0.0, 0.0
	for ci := 0; ci < nc; ci++ {
		frac := t[ci] / total
		if cm.cap[ci] > 0 {
			pressure += frac * frac / cm.cap[ci]
		}
		locality += frac * cm.dist[ci]
	}
	return pressure + localityWeight*locality
}

func (cm *costModel) index(src, dst int) int {
	return src*cm.nn + dst
}
