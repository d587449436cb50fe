// Package optimize implements the placement fixes the paper applies to the
// data objects DR-BW's diagnoser blames, and the speedup methodology used
// throughout the evaluation:
//
//   - Interleave — spread an object's (or the whole program's) pages
//     round-robin over all nodes; the coarse baseline (numactl --interleave).
//     Interleaving the entire program is also the paper's ground-truth
//     probe: a benchmark whose interleaved run is ≥ 10% faster is considered
//     to actually suffer remote bandwidth contention (Section VII-B).
//   - Colocate — re-place an object so each thread's share sits on the
//     thread's own node (the data-computation co-location fix applied to
//     AMG2006, IRSmk, LULESH and NW).
//   - Replicate — duplicate a read-only object on every node the program
//     uses (the streamcluster fix).
package optimize

import (
	"fmt"

	"drbw/internal/alloc"
	"drbw/internal/engine"
	"drbw/internal/memsim"
	"drbw/internal/program"
	"drbw/internal/topology"
)

// Strategy is one placement fix.
type Strategy int

// The paper's placement strategies.
const (
	Interleave Strategy = iota
	Colocate
	Replicate
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Interleave:
		return "interleave"
	case Colocate:
		return "co-locate"
	case Replicate:
		return "replicate"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Apply re-places the named objects of p according to the strategy. An
// empty objects list means the whole program: every live heap object, and —
// for Interleave, which models `numactl --interleave=all` — every static
// region as well.
func Apply(p *program.Program, s Strategy, objects []alloc.ObjectID) error {
	if len(objects) == 0 {
		if s == Interleave {
			// numactl affects the entire address space, static data
			// included; re-place every mapped region directly.
			for _, base := range p.Space.RegionBases() {
				if err := p.Space.SetPolicy(base, memsim.InterleaveAll()); err != nil {
					return fmt.Errorf("optimize: interleave region %#x: %w", base, err)
				}
			}
			return nil
		}
		for _, o := range p.Heap.Live() {
			objects = append(objects, o.ID)
		}
	}
	nodes := p.NodesUsed()
	if len(nodes) == 0 {
		return fmt.Errorf("optimize: program has no bound threads")
	}
	for _, id := range objects {
		var err error
		switch s {
		case Interleave:
			err = p.Heap.SetPolicy(id, memsim.InterleaveAll())
		case Colocate:
			// Fresh first-touch state, then touch in the blocked partition
			// the threads use, so each share is local to its accessors.
			if err = p.Heap.SetPolicy(id, memsim.FirstTouchPolicy()); err == nil {
				p.Heap.TouchPartitioned(id, nodes)
			}
		case Replicate:
			err = p.Heap.SetPolicy(id, memsim.Policy{Kind: memsim.Replicate, Nodes: nodes})
		default:
			err = fmt.Errorf("unknown strategy %d", int(s))
		}
		if err != nil {
			return fmt.Errorf("optimize: %s on object %d: %w", s, id, err)
		}
	}
	return nil
}

// ApplyByName is Apply with object names (the form the diagnoser reports).
func ApplyByName(p *program.Program, s Strategy, names ...string) error {
	var ids []alloc.ObjectID
	for _, n := range names {
		o, ok := p.Object(n)
		if !ok {
			return fmt.Errorf("optimize: no live object named %q", n)
		}
		ids = append(ids, o.ID)
	}
	return Apply(p, s, ids)
}

// Comparison is the outcome of one base-vs-optimized measurement.
type Comparison struct {
	BaseCycles float64
	OptCycles  float64
	// PhaseSpeedups reports per-phase speedups when phase counts match.
	PhaseSpeedups []float64
	// Remote access and latency reductions, as fractions (0.878 = -87.8%).
	RemoteReduction  float64
	LatencyReduction float64
}

// Speedup is BaseCycles/OptCycles (>1 means the fix helped).
func (c Comparison) Speedup() float64 {
	if c.OptCycles == 0 {
		return 0
	}
	return c.BaseCycles / c.OptCycles
}

// Transform mutates a freshly built program before its optimized run.
type Transform func(*program.Program) error

// WholeProgram returns a Transform applying s to every live object.
func WholeProgram(s Strategy) Transform {
	return func(p *program.Program) error { return Apply(p, s, nil) }
}

// Objects returns a Transform applying s to the named objects.
func Objects(s Strategy, names ...string) Transform {
	return func(p *program.Program) error { return ApplyByName(p, s, names...) }
}

// Compare builds the Comparison between a base and an optimized run.
func Compare(baseRes, optRes *engine.Result) Comparison {
	c := Comparison{BaseCycles: baseRes.Cycles, OptCycles: optRes.Cycles}
	if len(baseRes.Phases) == len(optRes.Phases) {
		for i := range baseRes.Phases {
			if optRes.Phases[i].Cycles > 0 {
				c.PhaseSpeedups = append(c.PhaseSpeedups, baseRes.Phases[i].Cycles/optRes.Phases[i].Cycles)
			} else {
				c.PhaseSpeedups = append(c.PhaseSpeedups, 1)
			}
		}
	}
	if br := baseRes.RemoteDRAMAccesses(); br > 0 {
		c.RemoteReduction = 1 - optRes.RemoteDRAMAccesses()/br
	}
	if bl := baseRes.AvgDRAMLatency(); bl > 0 {
		c.LatencyReduction = 1 - optRes.AvgDRAMLatency()/bl
	}
	return c
}

// MeasureBase builds the program unmodified and runs it once: the shared
// baseline every optimized variant of the same case compares against. The
// result carries the run's window recording, so MeasureAgainst replays the
// caches instead of simulating them again.
func MeasureBase(b program.Builder, m *topology.Machine, cfg program.Config, ecfg engine.Config) (*engine.Result, error) {
	base, err := b.New(m, cfg)
	if err != nil {
		return nil, err
	}
	return base.Record(ecfg)
}

// MeasureAgainst runs the transform's optimized variant and compares it to
// an already-measured base run of the same case and engine configuration,
// replaying the base's window recording when it carries one.
func MeasureAgainst(baseRes *engine.Result, b program.Builder, m *topology.Machine, cfg program.Config, ecfg engine.Config, t Transform) (Comparison, error) {
	opt, err := b.New(m, cfg)
	if err != nil {
		return Comparison{}, err
	}
	if err := t(opt); err != nil {
		return Comparison{}, err
	}
	optRes, err := opt.Replay(baseRes, ecfg)
	if err != nil {
		return Comparison{}, err
	}
	return Compare(baseRes, optRes), nil
}

// Measure builds the program twice — once unmodified, once with the
// transform applied — runs both with ecfg, and reports the comparison. The
// base runs first and the optimized variant replays its windows. Callers
// measuring several transforms of one case should run the base once with
// MeasureBase and each transform with MeasureAgainst.
func Measure(b program.Builder, m *topology.Machine, cfg program.Config, ecfg engine.Config, t Transform) (Comparison, error) {
	baseRes, err := MeasureBase(b, m, cfg, ecfg)
	if err != nil {
		return Comparison{}, err
	}
	return MeasureAgainst(baseRes, b, m, cfg, ecfg, t)
}

// GroundTruthThreshold is the paper's criterion: a case is actually
// contended when whole-program interleaving speeds it up by at least 10%.
const GroundTruthThreshold = 1.10

// ActualRMC runs the paper's ground-truth probe for one case.
func ActualRMC(b program.Builder, m *topology.Machine, cfg program.Config, ecfg engine.Config) (bool, Comparison, error) {
	c, err := Measure(b, m, cfg, ecfg, WholeProgram(Interleave))
	if err != nil {
		return false, Comparison{}, err
	}
	return c.Speedup() >= GroundTruthThreshold, c, nil
}
