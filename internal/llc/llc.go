// Package llc extends DR-BW beyond memory bandwidth, to shared last-level
// cache contention — the first item on the paper's future-work list
// (Section IX: "contention in ... different level of caches").
//
// The methodology is the paper's, retargeted:
//
//   - Micro benchmarks with known behaviour. Each "wset" thread loops over
//     a private working set. In "fit" mode the per-socket sum of working
//     sets stays comfortably inside the shared L3; in "thrash" mode every
//     thread's set fits alone but the socket's sum overflows the cache, so
//     co-running threads evict each other — the classic capacity-contention
//     pathology. The simulation's per-socket shared L3 with LRU produces
//     the real phenomenon, not a label: the same thread thrashes or hits
//     depending only on its neighbours.
//
//   - Per-socket feature vectors from the same PEBS samples: L3 hit/miss
//     counts, the miss ratio, DRAM sample counts and latencies. (Remote
//     traffic plays no role here; the training placements are co-located.)
//
//   - A CART decision tree classifies each socket as "fit" or "thrash",
//     and the diagnoser charges a Contribution Fraction to the data
//     objects behind the misses on contended sockets.
//
// Cache-scale working sets cannot be swept by the default simulation
// window, so this experiment runs against a scaled LLC (2 MB per socket)
// with proportional working sets and a longer window — the contention
// physics are identical, only the byte counts shrink.
package llc

import (
	"fmt"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/diagnose"
	"drbw/internal/dtree"
	"drbw/internal/engine"
	"drbw/internal/memsim"
	"drbw/internal/pebs"
	"drbw/internal/program"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

const (
	kb = 1 << 10
	mb = 1 << 20
)

// ScaledL3 is the LLC size used by the cache-contention experiment.
const ScaledL3 = 2 * mb

// CacheConfig returns the scaled hierarchy every llc run uses.
func CacheConfig() cache.Config {
	return cache.Config{
		L1Size: 16 << 10, L1Assoc: 4,
		L2Size: 64 << 10, L2Assoc: 8,
		L3Size: ScaledL3, L3Assoc: 16,
		LFBEntries:    10,
		PrefetchDepth: -1, // disabled: streaming prefetch would mask capacity misses
	}
}

// EngineConfig returns a window long enough to sweep cache-scale working
// sets twice.
func EngineConfig(seed uint64) engine.Config {
	return engine.Config{Window: 65536, Warmup: 32768, ReservoirSize: 2048, Seed: seed}
}

// Mode labels a training run.
type Mode int

// Cache behaviour classes.
const (
	Fit    Mode = iota // per-socket working sets fit the shared L3
	Thrash             // co-running threads overflow and evict each other
)

// String names the mode.
func (m Mode) String() string {
	if m == Fit {
		return "fit"
	}
	return "thrash"
}

// Wset builds the working-set mini-program: every thread loops over its own
// wsBytes-sized array at line granularity. Placement is co-located, so any
// slowdown is cache contention, never NUMA traffic.
func Wset(wsBytes uint64) program.Builder {
	return program.Builder{
		Name:   fmt.Sprintf("wset-%dKB", wsBytes/kb),
		Inputs: []string{"default"},
		Build: func(m *topology.Machine, cfg program.Config) (*program.Program, error) {
			bind, err := engine.EvenBinding(m, cfg.Threads, cfg.Nodes)
			if err != nil {
				return nil, err
			}
			as := memsim.NewAddressSpace(m)
			heap := alloc.NewHeap(as, 0x10000000)
			p := &program.Program{
				Machine: m, Space: as, Heap: heap, Binding: bind,
				CacheConfig: CacheConfig(),
			}
			ph := trace.Phase{Name: "sweep"}
			for t := 0; t < cfg.Threads; t++ {
				obj, err := heap.Malloc(fmt.Sprintf("wset_%d", t), wsBytes,
					alloc.Site{Func: "worker", File: "wset.c", Line: 30 + t},
					memsim.FirstTouchPolicy())
				if err != nil {
					return nil, err
				}
				heap.TouchAll(obj, m.NodeOfCPU(bind[t]))
				ph.Threads = append(ph.Threads, trace.ThreadSpec{
					Stream:     &trace.Seq{Base: heap.Object(obj).Base, Len: wsBytes, Elem: 64},
					Ops:        1.2e6,
					MLP:        4,
					WorkCycles: 2,
				})
			}
			p.Phases = []trace.Phase{ph}
			return p, nil
		},
	}
}

// Instance is one labeled training run.
type Instance struct {
	Builder program.Builder
	Cfg     program.Config
	Mode    Mode
}

// TrainingSet builds the labeled runs: per thread-count, working sets sized
// so the socket sum lands well below (fit) or well above (thrash) the
// scaled L3.
func TrainingSet() []Instance {
	var out []Instance
	seed := uint64(31000)
	type point struct {
		threads, nodes int
	}
	points := []point{
		{2, 1}, {4, 1}, {8, 1}, {4, 2}, {8, 2}, {16, 2}, {8, 4}, {16, 4}, {32, 4},
	}
	for rep := 0; rep < 3; rep++ {
		for _, pt := range points {
			perSocket := pt.threads / pt.nodes
			// Three working-set regimes per point: L2-resident (fit with no
			// L3 activity at all — without these the tree can mistake "few
			// L3 hits" for thrashing), L3-resident (socket sum ~45% of the
			// shared cache), and overflowing (sum ~220%, each thread's set
			// alone at most ~70%).
			l2WS := uint64(24 * kb)
			fitWS := uint64(float64(ScaledL3) * 0.45 / float64(perSocket))
			thrashWS := uint64(float64(ScaledL3) * 2.2 / float64(perSocket))
			maxWS := uint64(ScaledL3 * 7 / 10)
			if thrashWS > maxWS {
				thrashWS = maxWS
			}
			fitWS = fitWS &^ 4095
			thrashWS = thrashWS &^ 4095
			if fitWS < 8*kb {
				fitWS = 8 * kb
			}
			for _, inst := range []Instance{
				{Builder: Wset(l2WS), Mode: Fit},
				{Builder: Wset(fitWS), Mode: Fit},
				{Builder: Wset(thrashWS), Mode: Thrash},
			} {
				inst.Cfg = program.Config{Threads: pt.threads, Nodes: pt.nodes, Input: "default", Seed: seed}
				seed++
				out = append(out, inst)
			}
		}
	}
	return out
}

// NumFeatures is the size of the per-socket cache-contention vector.
const NumFeatures = 7

// FeatureNames describes the vector.
var FeatureNames = [NumFeatures]string{
	"num L3 hit samples",
	"num L3 miss samples (LFB+DRAM)",
	"L3 miss ratio",
	"num local dram samples",
	"avg local dram latency",
	"avg latency",
	"total samples",
}

// Vector is one per-socket feature vector.
type Vector [NumFeatures]float64

// Extract computes the vector for socket node from a run's samples.
// Whole-cycle latencies sum in integers, so the vector depends on the
// sample multiset, not on the order the profiler emitted it in.
func Extract(samples []pebs.Sample, node topology.NodeID, weight float64) Vector {
	if weight <= 0 {
		weight = 1
	}
	var v Vector
	var batch, l3hit, l3miss, localDRAM float64
	var latSum, localLat uint64
	for _, s := range samples {
		if s.SrcNode != node {
			continue
		}
		batch++
		latSum += uint64(s.Latency)
		switch {
		case s.Level == cache.L3:
			l3hit++
		case s.Level == cache.LFB || s.Level == cache.MEM:
			l3miss++
		}
		if s.LocalDRAM() {
			localDRAM++
			localLat += uint64(s.Latency)
		}
	}
	if batch == 0 {
		return v
	}
	v[0] = l3hit * weight
	v[1] = l3miss * weight
	if l3hit+l3miss > 0 {
		v[2] = l3miss / (l3hit + l3miss)
	}
	v[3] = localDRAM * weight
	if localDRAM > 0 {
		v[4] = float64(localLat) / localDRAM
	}
	v[5] = float64(latSum) / batch
	v[6] = batch * weight
	return v
}

// collectorConfig mirrors the bandwidth detector's sampling setup.
func collectorConfig() pebs.Config {
	return pebs.Config{Period: pebs.DefaultPeriod, MaxKept: 120000}
}

// Detector is a trained cache-contention classifier.
type Detector struct {
	Tree    *dtree.Tree
	Dataset *dtree.Dataset
	// MinSamples is the minimum per-socket batch to classify.
	MinSamples int
}

// Train collects the training set and fits the tree.
func Train(m *topology.Machine, quick bool, seed uint64) (*Detector, error) {
	set := TrainingSet()
	if quick {
		// Stride 2 is coprime with the 3-regime cadence, so the reduced set
		// still covers L2-resident, L3-resident and overflowing runs.
		var reduced []Instance
		for i := 0; i < len(set); i += 2 {
			reduced = append(reduced, set[i])
		}
		set = reduced
	}
	ds := &dtree.Dataset{
		FeatureNames: FeatureNames[:],
		ClassNames:   []string{Fit.String(), Thrash.String()},
	}
	for i, inst := range set {
		samples, weight, _, err := run(m, inst.Builder, inst.Cfg, seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("llc: training instance %d: %w", i, err)
		}
		// One example per *occupied* socket.
		occupied := map[topology.NodeID]bool{}
		for _, s := range samples {
			occupied[s.SrcNode] = true
		}
		for node := range occupied {
			vec := Extract(samples, node, weight)
			if vec[6] < 25 {
				continue
			}
			ds.Examples = append(ds.Examples, dtree.Example{X: vec[:], Y: int(inst.Mode)})
		}
	}
	tree, err := dtree.Train(ds, dtree.Config{MaxDepth: 4, MinLeaf: 3})
	if err != nil {
		return nil, err
	}
	return &Detector{Tree: tree, Dataset: ds, MinSamples: 25}, nil
}

func run(m *topology.Machine, b program.Builder, cfg program.Config, seed uint64) ([]pebs.Sample, float64, *program.Program, error) {
	p, err := b.New(m, cfg)
	if err != nil {
		return nil, 0, nil, err
	}
	// Every llc run uses the scaled hierarchy, whatever the builder set.
	p.CacheConfig = CacheConfig()
	col := pebs.NewCollector(collectorConfig(), seed+3)
	ecfg := EngineConfig(seed + 5)
	ecfg.Collector = col
	if _, err := p.Run(ecfg); err != nil {
		return nil, 0, nil, err
	}
	return col.Samples(), col.Weight(), p, nil
}

// Result reports one analyzed run.
type Result struct {
	// Contended lists sockets classified as thrashing.
	Contended []topology.NodeID
	// Report ranks objects by CF over the contended sockets' L3-miss
	// samples.
	Report *diagnose.Report
}

// Detected reports whether any socket thrashes.
func (r *Result) Detected() bool { return len(r.Contended) > 0 }

// Analyze runs a program under the scaled-LLC configuration and classifies
// each socket; on detection, L3-miss samples on contended sockets are
// attributed to data objects.
func (d *Detector) Analyze(m *topology.Machine, b program.Builder, cfg program.Config) (*Result, error) {
	samples, weight, p, err := run(m, b, cfg, cfg.Seed+77)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for n := 0; n < m.Nodes(); n++ {
		node := topology.NodeID(n)
		vec := Extract(samples, node, weight)
		if vec[6] < float64(d.MinSamples) {
			continue
		}
		v := vec
		if d.Tree.Predict(v[:]) == int(Thrash) {
			res.Contended = append(res.Contended, node)
		}
	}
	if len(res.Contended) == 0 {
		res.Report = &diagnose.Report{}
		return res, nil
	}
	// Attribute L3-miss samples on the contended sockets: reuse the CF
	// machinery with the sockets' local channels. DenseCF counts remote
	// channels only, so this is the one library caller of diagnose.Analyze.
	var channels []topology.Channel
	for _, n := range res.Contended {
		channels = append(channels, topology.Channel{Src: n, Dst: n})
	}
	var missSamples []pebs.Sample
	for _, s := range samples {
		if s.Level == cache.LFB || s.Level == cache.MEM || s.Level == cache.L3 {
			missSamples = append(missSamples, s)
		}
	}
	res.Report = diagnose.Analyze(p.Heap, missSamples, channels, weight)
	return res, nil
}

// CrossValidate reports k-fold accuracy of the trained dataset.
func (d *Detector) CrossValidate(k int) (*dtree.ConfusionMatrix, error) {
	return dtree.CrossValidate(d.Dataset, dtree.Config{MaxDepth: 4, MinLeaf: 3}, k, 42)
}
