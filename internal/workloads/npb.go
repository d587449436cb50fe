package workloads

import (
	"fmt"

	"drbw/internal/alloc"
	"drbw/internal/program"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// NPB classes; DC runs A and B only (16 cases in Table V).
var npbInputs = []string{"A", "B", "C"}

// npbScale converts a class letter to a footprint multiplier.
func npbScale(input string) (uint64, error) {
	return inputScale(map[string]uint64{"A": 1, "B": 4, "C": 16}, input)
}

// npbStencil builds the common shape of the NPB structured-grid solvers
// (BT, LU, MG): several co-located field arrays swept in blocked
// parallel-for loops with real arithmetic between accesses. Class: good —
// parallel initialization co-locates every page.
func npbStencil(name string, arrays int, baseMB uint64, mlp, work float64) program.Builder {
	return program.Builder{
		Name:   name,
		Inputs: npbInputs,
		Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
			p, err := build(m, cfg)
			if err != nil {
				return nil, err
			}
			scale, err := npbScale(cfg.Input)
			if err != nil {
				return nil, err
			}
			var objs []alloc.Object
			for i := 0; i < arrays; i++ {
				o, err := parallelAlloc(p, cfg, fmt.Sprintf("u%d", i),
					scale*baseMB*mb, site("initialize", name+".f", 120+10*i))
				if err != nil {
					return nil, err
				}
				objs = append(objs, o)
			}
			p.Phases = []trace.Phase{
				blockedPhase("solve", objs, cfg.Threads, 2e6, mlp, work),
			}
			return p, nil
		},
	}
}

// BT: block tri-diagonal solver. Class: good.
func BT() program.Builder { return npbStencil("BT", 5, 8, 4, 10) }

// LU: lower-upper Gauss-Seidel solver. Class: good.
func LU() program.Builder { return npbStencil("LU", 4, 8, 4, 9) }

// MG: multigrid. Class: good.
func MG() program.Builder { return npbStencil("MG", 3, 12, 5, 8) }

// CG: conjugate gradient — CSR sparse matrix-vector products. The matrix
// rows are co-located; the gathered x vector is shared but small enough to
// stay cache resident. Class: good.
func CG() program.Builder {
	return program.Builder{
		Name:   "CG",
		Inputs: npbInputs,
		Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
			p, err := build(m, cfg)
			if err != nil {
				return nil, err
			}
			scale, err := npbScale(cfg.Input)
			if err != nil {
				return nil, err
			}
			a, err := parallelAlloc(p, cfg, "a", scale*24*mb, site("makea", "cg.f", 855))
			if err != nil {
				return nil, err
			}
			colidx, err := parallelAlloc(p, cfg, "colidx", scale*12*mb, site("makea", "cg.f", 857))
			if err != nil {
				return nil, err
			}
			// The gathered x vector is small (1.2 MB even for class C) and
			// rewritten by all threads every iteration, so its pages spread
			// across the nodes.
			x, err := parallelAlloc(p, cfg, "x", scale*128*kb, site("main", "cg.f", 300))
			if err != nil {
				return nil, err
			}
			ph := trace.Phase{Name: "conj_grad"}
			aS := threadSlices(a, cfg.Threads)
			cS := threadSlices(colidx, cfg.Threads)
			for t := 0; t < cfg.Threads; t++ {
				s := &trace.Mix{
					Streams: []trace.Stream{
						&trace.Seq{Base: aS[t].Base, Len: aS[t].Len, Elem: 8},
						&trace.Seq{Base: cS[t].Base, Len: cS[t].Len, Elem: 4},
						&trace.Rand{Base: x.Base, Len: x.Size, Elem: 8},
					},
					Weights: []int{2, 1, 1},
				}
				ph.Threads = append(ph.Threads, trace.ThreadSpec{
					Stream: s, Ops: 2e6, MLP: 4, WorkCycles: 6,
				})
			}
			p.Phases = []trace.Phase{ph}
			return p, nil
		},
	}
}

// DC: data cube operator — streaming aggregation over co-located tuples.
// Class: good. Runs classes A and B (16 cases).
func DC() program.Builder {
	b := npbStencil("DC", 2, 16, 4, 8)
	b.Inputs = []string{"A", "B"}
	return b
}

// EP: embarrassingly parallel random-number kernel; essentially no memory
// traffic. Class: good.
func EP() program.Builder {
	return program.Builder{
		Name:   "EP",
		Inputs: npbInputs,
		Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
			p, err := build(m, cfg)
			if err != nil {
				return nil, err
			}
			scale, err := npbScale(cfg.Input)
			if err != nil {
				return nil, err
			}
			o, err := parallelAlloc(p, cfg, "qq", uint64(cfg.Threads)*16*kb,
				site("embar", "ep.f", 230))
			if err != nil {
				return nil, err
			}
			p.Phases = []trace.Phase{
				blockedPhase("gaussian", []alloc.Object{o}, cfg.Threads,
					float64(scale)*3e5, 1, 30),
			}
			return p, nil
		},
	}
}

// FT: 3-D FFT. The local FFT passes stream over co-located data; the
// transpose exchanges every thread's slice with every other thread's, so
// the traffic is all-to-all and *balanced*: per-channel load approaches —
// but does not pass — saturation on the largest class, inflating latencies
// without a bindable hot channel. Class: good (the paper's 2 FT
// false-positive cases).
func FT() program.Builder {
	return program.Builder{
		Name:   "FT",
		Inputs: npbInputs,
		Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
			p, err := build(m, cfg)
			if err != nil {
				return nil, err
			}
			scale, err := npbScale(cfg.Input)
			if err != nil {
				return nil, err
			}
			u, err := parallelAlloc(p, cfg, "u0", scale*16*mb, site("setup", "ft.f", 210))
			if err != nil {
				return nil, err
			}
			scratch, err := parallelAlloc(p, cfg, "u1", scale*16*mb, site("setup", "ft.f", 212))
			if err != nil {
				return nil, err
			}
			local := blockedPhase("fft_local", []alloc.Object{u, scratch},
				cfg.Threads, 1.2e6, 6, 7)

			// Transpose: each thread reads the slices owned by one peer on
			// every *other* node (t + k·T/n for k = 1..n-1) and writes its
			// own scratch slice — deterministic all-to-all that loads every
			// inter-socket channel evenly.
			tp := trace.Phase{Name: "transpose"}
			uS := threadSlices(u, cfg.Threads)
			sS := threadSlices(scratch, cfg.Threads)
			for t := 0; t < cfg.Threads; t++ {
				streams := []trace.Stream{
					&trace.Seq{Base: sS[t].Base, Len: sS[t].Len, Elem: 8, WriteEvery: 1},
				}
				weights := []int{cfg.Nodes - 1}
				if cfg.Nodes == 1 {
					weights = []int{1}
				}
				for k := 1; k < cfg.Nodes; k++ {
					peer := (t + k*cfg.Threads/cfg.Nodes) % cfg.Threads
					streams = append(streams, &trace.Seq{Base: uS[peer].Base, Len: uS[peer].Len, Elem: 8})
					weights = append(weights, 1)
				}
				tp.Threads = append(tp.Threads, trace.ThreadSpec{
					Stream:     &trace.Mix{Streams: streams, Weights: weights},
					Ops:        1e6,
					MLP:        6,
					WorkCycles: 3.5,
				})
			}
			p.Phases = []trace.Phase{local, tp}
			return p, nil
		},
	}
}

// IS: integer bucket sort — sequential key scan plus scattered histogram
// updates into a co-located bucket array. Class: good.
func IS() program.Builder {
	return program.Builder{
		Name:   "IS",
		Inputs: npbInputs,
		Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
			p, err := build(m, cfg)
			if err != nil {
				return nil, err
			}
			scale, err := npbScale(cfg.Input)
			if err != nil {
				return nil, err
			}
			keys, err := parallelAlloc(p, cfg, "key_array", scale*16*mb,
				site("create_seq", "is.c", 380))
			if err != nil {
				return nil, err
			}
			buckets, err := parallelAlloc(p, cfg, "bucket_ptrs", scale*1*mb,
				site("rank", "is.c", 510))
			if err != nil {
				return nil, err
			}
			ph := trace.Phase{Name: "rank"}
			kS := threadSlices(keys, cfg.Threads)
			for t := 0; t < cfg.Threads; t++ {
				s := &trace.Mix{
					Streams: []trace.Stream{
						&trace.Seq{Base: kS[t].Base, Len: kS[t].Len, Elem: 4},
						&trace.Rand{Base: buckets.Base, Len: buckets.Size, Elem: 4, WriteFrac: 0.5},
					},
					Weights: []int{5, 1},
				}
				ph.Threads = append(ph.Threads, trace.ThreadSpec{
					Stream: s, Ops: 1.6e6, MLP: 4, WorkCycles: 9,
				})
			}
			p.Phases = []trace.Phase{ph}
			return p, nil
		},
	}
}

// UA: unstructured adaptive mesh — irregular gathers over a co-located
// mesh plus frequent visits to shared adaptivity tables built by the master
// thread. The shared share keeps the node-0 channels warm enough to trip
// the classifier on several cases while interleaving never gains 10%.
// Class: good (the paper's 9 UA false-positive cases).
func UA() program.Builder {
	return program.Builder{
		Name:   "UA",
		Inputs: npbInputs,
		Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
			p, err := build(m, cfg)
			if err != nil {
				return nil, err
			}
			scale, err := npbScale(cfg.Input)
			if err != nil {
				return nil, err
			}
			mesh, err := parallelAlloc(p, cfg, "mesh", scale*24*mb, site("mesher", "ua.f", 540))
			if err != nil {
				return nil, err
			}
			tables, err := masterAlloc(p, "adapt_tables", scale*12*mb, site("setup", "ua.f", 118))
			if err != nil {
				return nil, err
			}
			ph := trace.Phase{Name: "adapt"}
			mS := threadSlices(mesh, cfg.Threads)
			for t := 0; t < cfg.Threads; t++ {
				s := &trace.Mix{
					Streams: []trace.Stream{
						&trace.Seq{Base: mS[t].Base, Len: mS[t].Len, Elem: 8},
						&trace.Rand{Base: tables.Base, Len: tables.Size, Elem: 8},
					},
					Weights: []int{11, 1},
				}
				ph.Threads = append(ph.Threads, trace.ThreadSpec{
					Stream: s, Ops: 1.8e6, MLP: 4, WorkCycles: 8,
				})
			}
			p.Phases = []trace.Phase{ph}
			return p, nil
		},
	}
}

// SP: scalar penta-diagonal solver. Unlike the other NPB codes, SP's field
// arrays are statically allocated (Fortran COMMON blocks) and land on node
// 0 with the process image — the profiler cannot attribute samples to them
// (Section VIII-F), and interleaving the whole program is the only fix the
// paper applies (up to 1.75×). Class: rmc (11/24 cases).
func SP() program.Builder {
	return program.Builder{
		Name:   "SP",
		Inputs: npbInputs,
		Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
			p, err := build(m, cfg)
			if err != nil {
				return nil, err
			}
			var sizeMB uint64
			var mlp, work float64
			switch cfg.Input {
			case "A":
				// Class A fits the caches (reduced to keep per-thread
				// slices within a warmup pass).
				sizeMB, mlp, work = 1, 4, 8
			case "B":
				// Class B streams with moderate intensity: only the densest
				// thread-per-node configurations saturate the node-0 links.
				sizeMB, mlp, work = 96, 4, 11
			case "C":
				sizeMB, mlp, work = 256, 8, 3
			default:
				return nil, errUnknownInput(cfg.Input)
			}
			const staticBase = 0x7f0000000000
			base, err := staticAlloc(p, staticBase, sizeMB*mb)
			if err != nil {
				return nil, err
			}
			ph := trace.Phase{Name: "adi"}
			parts := program.PartitionSeq(sizeMB*mb, cfg.Threads)
			for t := 0; t < cfg.Threads; t++ {
				s := &trace.Seq{Base: base + parts[t].Off, Len: parts[t].Len, Elem: 8, WriteEvery: 3}
				ph.Threads = append(ph.Threads, trace.ThreadSpec{
					Stream: s, Ops: 2e6, MLP: mlp, WorkCycles: work,
				})
			}
			p.Phases = []trace.Phase{ph}
			return p, nil
		},
	}
}
