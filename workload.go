package drbw

import (
	"encoding/json"
	"fmt"
	"os"

	"drbw/internal/alloc"
	"drbw/internal/engine"
	"drbw/internal/memsim"
	"drbw/internal/program"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// Placement selects how an array's pages are placed at allocation time.
type Placement string

// Array placements.
const (
	// Master: the master thread initializes the array serially, so
	// first-touch concentrates every page on node 0 — the contention
	// pathology DR-BW diagnoses.
	Master Placement = "master"
	// Parallel: a blocked parallel loop initializes the array, co-locating
	// each share with the threads that use it.
	Parallel Placement = "parallel"
	// Interleaved: pages spread round-robin over all nodes.
	Interleaved Placement = "interleaved"
)

// Pattern selects how threads access an array.
type Pattern string

// Access patterns.
const (
	// Scan: each thread sweeps its own contiguous share.
	Scan Pattern = "scan"
	// SharedRandom: every thread reads random elements of the whole array.
	SharedRandom Pattern = "shared-random"
)

// ArraySpec declares one heap array of a custom workload.
type ArraySpec struct {
	Name      string    `json:"name"`
	MB        int       `json:"mb"` // size in MiB; see maxWorkloadMiB
	Placement Placement `json:"placement,omitempty"`
	Pattern   Pattern   `json:"pattern,omitempty"`
	// Weight is the array's relative share of the thread's accesses
	// (default 1).
	Weight int `json:"weight,omitempty"`
	// WriteEvery makes every k-th access to this array a store (0 = reads
	// only). Only meaningful for Scan.
	WriteEvery int `json:"write_every,omitempty"`
}

// WorkloadSpec describes a custom workload for Tool.AnalyzeWorkload: a set
// of arrays plus the execution character of its (identical) threads. The
// JSON form is what cmd/drbw-workload reads.
type WorkloadSpec struct {
	Name   string      `json:"name"`
	Arrays []ArraySpec `json:"arrays"`
	// OpsPerThread is the total memory accesses each thread performs
	// (default 2e6).
	OpsPerThread float64 `json:"ops_per_thread,omitempty"`
	// MLP is the sustained memory-level parallelism (default 8 — streaming
	// vector code; use 1 for dependent pointer chasing).
	MLP float64 `json:"mlp,omitempty"`
	// WorkCycles is the compute time per access in cycles (default 1).
	WorkCycles float64 `json:"work_cycles,omitempty"`
}

// LoadWorkloadSpec reads a WorkloadSpec from a JSON file.
func LoadWorkloadSpec(path string) (WorkloadSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return WorkloadSpec{}, fmt.Errorf("drbw: %w", err)
	}
	var w WorkloadSpec
	if err := json.Unmarshal(data, &w); err != nil {
		return WorkloadSpec{}, fmt.Errorf("drbw: parsing workload spec %s: %w", path, err)
	}
	return w, nil
}

// maxWorkloadMiB caps the summed array sizes of one WorkloadSpec (16 GiB).
// The simulated address space keeps one node entry per 4 KiB page, so the
// cap bounds that table at 32 MiB and keeps every array address inside the
// engine's 47-bit sample records.
const maxWorkloadMiB = 16 << 10

// builder converts the spec into an internal program builder.
func (w WorkloadSpec) builder() (program.Builder, error) {
	if len(w.Arrays) == 0 {
		return program.Builder{}, fmt.Errorf("drbw: workload %q has no arrays", w.Name)
	}
	total := 0
	for _, a := range w.Arrays {
		if a.MB <= 0 {
			return program.Builder{}, fmt.Errorf("drbw: array %q has non-positive size", a.Name)
		}
		if a.Name == "" {
			return program.Builder{}, fmt.Errorf("drbw: workload %q has an unnamed array", w.Name)
		}
		// Each term is checked before it is added, so the sum cannot overflow.
		if a.MB > maxWorkloadMiB || total+a.MB > maxWorkloadMiB {
			return program.Builder{}, fmt.Errorf("drbw: workload %q arrays exceed the %d MiB limit", w.Name, maxWorkloadMiB)
		}
		total += a.MB
	}
	name := w.Name
	if name == "" {
		name = "custom"
	}
	spec := w
	return program.Builder{
		Name:   name,
		Inputs: []string{"default"},
		Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
			bind, err := engine.EvenBinding(m, cfg.Threads, cfg.Nodes)
			if err != nil {
				return nil, err
			}
			as := memsim.NewAddressSpace(m)
			heap := alloc.NewHeap(as, 0x10000000)
			p := &program.Program{Machine: m, Space: as, Heap: heap, Binding: bind}

			type placed struct {
				spec ArraySpec
				obj  alloc.Object
			}
			var arrays []placed
			for i, a := range spec.Arrays {
				id, err := heap.Malloc(a.Name, uint64(a.MB)<<20,
					alloc.Site{Func: "main", File: name + ".go", Line: 10 + i},
					memsim.FirstTouchPolicy())
				if err != nil {
					return nil, err
				}
				switch a.Placement {
				case Master, "":
					heap.TouchAll(id, 0)
				case Parallel:
					nodes := make([]topology.NodeID, cfg.Nodes)
					for n := range nodes {
						nodes[n] = topology.NodeID(n)
					}
					heap.TouchPartitioned(id, nodes)
				case Interleaved:
					if err := heap.SetPolicy(id, memsim.InterleaveAll()); err != nil {
						return nil, err
					}
				default:
					return nil, fmt.Errorf("unknown placement %q", a.Placement)
				}
				arrays = append(arrays, placed{spec: a, obj: heap.Object(id)})
			}

			ops := spec.OpsPerThread
			if ops <= 0 {
				ops = 2e6
			}
			mlp := spec.MLP
			if mlp <= 0 {
				mlp = 8
			}
			work := spec.WorkCycles
			if work <= 0 {
				work = 1
			}

			ph := trace.Phase{Name: "compute"}
			for t := 0; t < cfg.Threads; t++ {
				var streams []trace.Stream
				var weights []int
				for _, a := range arrays {
					weight := a.spec.Weight
					if weight <= 0 {
						weight = 1
					}
					switch a.spec.Pattern {
					case SharedRandom:
						streams = append(streams, &trace.Rand{
							Base: a.obj.Base, Len: a.obj.Size, Elem: 8,
						})
					case Scan, "":
						parts := program.PartitionSeq(a.obj.Size, cfg.Threads)
						streams = append(streams, &trace.Seq{
							Base: a.obj.Base + parts[t].Off, Len: parts[t].Len,
							Elem: 8, WriteEvery: a.spec.WriteEvery,
						})
					default:
						return nil, fmt.Errorf("unknown pattern %q", a.spec.Pattern)
					}
					weights = append(weights, weight)
				}
				var s trace.Stream
				if len(streams) == 1 {
					s = streams[0]
				} else {
					s = &trace.Mix{Streams: streams, Weights: weights}
				}
				ph.Threads = append(ph.Threads, trace.ThreadSpec{
					Stream: s, Ops: ops, MLP: mlp, WorkCycles: work,
				})
			}
			p.Phases = []trace.Phase{ph}
			return p, nil
		},
	}, nil
}

// AnalyzeWorkload runs the DR-BW pipeline on a custom workload. Like
// Analyze, the workload is simulated exactly once.
func (t *Tool) AnalyzeWorkload(w WorkloadSpec, c Case) (*Report, error) {
	b, err := w.builder()
	if err != nil {
		return nil, err
	}
	return t.detect(b, c, t.detector.Detect)
}

// EvaluateWorkload adds the interleave ground-truth probe to
// AnalyzeWorkload.
func (t *Tool) EvaluateWorkload(w WorkloadSpec, c Case) (*Report, error) {
	b, err := w.builder()
	if err != nil {
		return nil, err
	}
	return t.detect(b, c, t.detector.Evaluate)
}

// OptimizeWorkload measures a placement fix on a custom workload.
func (t *Tool) OptimizeWorkload(w WorkloadSpec, c Case, s Strategy, objects ...string) (Comparison, error) {
	b, err := w.builder()
	if err != nil {
		return Comparison{}, err
	}
	return t.measure(b, c, s, objects)
}
