// Package program defines the runnable unit of the reproduction: a fully
// materialized benchmark instance — machine, address space, heap objects,
// thread binding and phases — ready to execute on the engine.
//
// The paper evaluates every benchmark under Tt-Nn configurations (t threads
// evenly spread over n NUMA nodes, pinned to cores); Config carries that
// plus the input-size name. Builders (in internal/micro and
// internal/workloads) construct a fresh Program per run so placement state
// (first-touch resolution) never leaks between runs.
package program

import (
	"fmt"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/engine"
	"drbw/internal/memsim"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// Config selects one case of a benchmark.
type Config struct {
	Threads int
	Nodes   int
	Input   string
	Seed    uint64
}

// Label renders the paper's Tt-Nn notation.
func (c Config) Label() string { return fmt.Sprintf("T%d-N%d", c.Threads, c.Nodes) }

// String includes the input name.
func (c Config) String() string {
	if c.Input == "" {
		return c.Label()
	}
	return c.Label() + "/" + c.Input
}

// StandardConfigs are the eight Tt-Nn configurations of Section VII-A.
func StandardConfigs() []Config {
	return []Config{
		{Threads: 16, Nodes: 4},
		{Threads: 24, Nodes: 4},
		{Threads: 32, Nodes: 4},
		{Threads: 64, Nodes: 4},
		{Threads: 24, Nodes: 3},
		{Threads: 16, Nodes: 2},
		{Threads: 24, Nodes: 2},
		{Threads: 32, Nodes: 2},
	}
}

// Program is one materialized benchmark instance.
type Program struct {
	Name    string
	Cfg     Config
	Machine *topology.Machine
	Space   *memsim.AddressSpace
	Heap    *alloc.Heap
	Binding engine.Binding
	Phases  []trace.Phase
	// CacheConfig optionally overrides the hierarchy geometry (zero value =
	// machine defaults).
	CacheConfig cache.Config
}

// Builder constructs fresh instances of one benchmark.
type Builder struct {
	Name string
	// Inputs lists the input-size names this benchmark accepts, smallest
	// first (e.g. PARSEC's simSmall..native, NPB's A..C).
	Inputs []string
	// Build materializes the benchmark for one case.
	Build func(m *topology.Machine, cfg Config) (*Program, error)
}

// New materializes the builder, filling Config defaults (first input,
// T16-N2) when unset.
func (b Builder) New(m *topology.Machine, cfg Config) (*Program, error) {
	if cfg.Input == "" && len(b.Inputs) > 0 {
		cfg.Input = b.Inputs[0]
	}
	if cfg.Threads == 0 {
		cfg.Threads = 16
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	p, err := b.Build(m, cfg)
	if err != nil {
		return nil, fmt.Errorf("program %s %s: %w", b.Name, cfg, err)
	}
	if p.Name == "" {
		p.Name = b.Name
	}
	p.Cfg = cfg
	return p, nil
}

// Run executes the program with ecfg (Collector inside ecfg enables
// profiling). A fresh engine (fresh caches) is built per run.
func (p *Program) Run(ecfg engine.Config) (*engine.Result, error) {
	return p.exec(ecfg, func(e *engine.Engine) (*engine.Result, error) { return e.Run(p.Phases, p.Binding) })
}

// Record is Run that also records the run's windows on the result (see
// engine.Engine.Record), so later runs of the same case under another
// placement can Replay them.
func (p *Program) Record(ecfg engine.Config) (*engine.Result, error) {
	return p.exec(ecfg, func(e *engine.Engine) (*engine.Result, error) { return e.Record(p.Phases, p.Binding) })
}

// Replay is Run replaying base's recorded windows where they fit (see
// engine.Engine.Replay). base must be a run of the same builder and case
// configuration; only the placement may differ.
func (p *Program) Replay(base *engine.Result, ecfg engine.Config) (*engine.Result, error) {
	return p.exec(ecfg, func(e *engine.Engine) (*engine.Result, error) { return e.Replay(base, p.Phases, p.Binding) })
}

// exec builds the run's engine, with the seed defaulted from the case, and
// runs fn on it.
func (p *Program) exec(ecfg engine.Config, fn func(*engine.Engine) (*engine.Result, error)) (*engine.Result, error) {
	if ecfg.Seed == 0 {
		ecfg.Seed = p.Cfg.Seed + 1
	}
	e, err := engine.New(p.Machine, p.Space, p.CacheConfig, ecfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return fn(e)
}

// NodesUsed returns the distinct NUMA nodes the binding covers, ascending.
func (p *Program) NodesUsed() []topology.NodeID {
	seen := map[topology.NodeID]bool{}
	var out []topology.NodeID
	for _, cpu := range p.Binding {
		n := p.Machine.NodeOfCPU(cpu)
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Object finds a live heap object by name. It returns the first match; the
// workloads name their objects uniquely.
func (p *Program) Object(name string) (alloc.Object, bool) {
	for _, o := range p.Heap.Live() {
		if o.Name == name {
			return o, true
		}
	}
	return alloc.Object{}, false
}

// PartitionSeq carves [base, base+total) into per-thread contiguous slices
// and returns each thread's (offset, length), the layout of a blocked
// OpenMP parallel-for.
func PartitionSeq(total uint64, threads int) []struct{ Off, Len uint64 } {
	out := make([]struct{ Off, Len uint64 }, threads)
	per := total / uint64(threads)
	for i := range out {
		out[i].Off = uint64(i) * per
		out[i].Len = per
		if i == threads-1 {
			out[i].Len = total - out[i].Off
		}
	}
	return out
}
