package engine

// The reference oracle preserves the original map-based implementation of
// the window and integration stages. It exists to prove the dense-indexed
// path in engine.go is a pure refactor: runRef drives a run through this
// file, and the equivalence tests require bit-identical Results and PEBS
// samples from both paths.
//
// Two disciplines are shared with the fast path so "bit-identical" is
// achievable at all:
//
//   - The window reservoir draws from the same per-thread xorshift state
//     (reservoirSeed/xorshift64), not the run-level *rand.Rand.
//   - Float accumulations that cross channels iterate channels in ascending
//     dense-index (ChannelIndex) order. Go randomizes map iteration, and
//     float addition does not reassociate, so unsorted map walks would change
//     low-order bits run to run.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/memsim"
	"drbw/internal/pebs"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// runner is the signature shared by Run and runRef, so a test can drive one
// scenario through either path.
type runner func(*Engine, []trace.Phase, Binding) (*Result, error)

// pathFor returns the reference oracle when ref is set, Run otherwise.
func pathFor(ref bool) runner {
	if ref {
		return (*Engine).runRef
	}
	return (*Engine).Run
}

// runRef is Run over the reference window and integrator: the same binding
// checks, run-level RNG, budget skip and abort handling, without tracing or
// metrics.
func (e *Engine) runRef(phases []trace.Phase, bind Binding) (*Result, error) {
	if len(bind) == 0 {
		return nil, fmt.Errorf("engine: empty binding")
	}
	for _, cpu := range bind {
		if e.machine.NodeOfCPU(cpu) == topology.InvalidNode {
			return nil, fmt.Errorf("engine: binding references invalid CPU %d", cpu)
		}
	}
	res := &Result{}
	now := 0.0
	rng := rand.New(rand.NewSource(int64(e.cfg.Seed) ^ 0x51ed2701))
	for pi, ph := range phases {
		if len(ph.Threads) != len(bind) {
			return nil, fmt.Errorf("engine: phase %q has %d threads, binding has %d", ph.Name, len(ph.Threads), len(bind))
		}
		if e.cfg.CycleBudget > 0 && now >= e.cfg.CycleBudget {
			res.Aborted = true
			break
		}
		profiles, err := e.windowRef(ph, bind, uint64(pi))
		var pr *PhaseResult
		if err == nil {
			pr, err = e.integrateRef(ph, bind, profiles, now, rng)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: phase %q: %w", ph.Name, err)
		}
		now += pr.Cycles
		res.Phases = append(res.Phases, *pr)
		if pr.Aborted {
			res.Aborted = true
			break
		}
	}
	res.Cycles = now
	return res, nil
}

// pairInflation combines the link and target-controller pressure of a
// (src,dst) pair: the binding (most loaded) resource dominates the queue.
func (e *Engine) pairInflation(pair topology.Channel, util map[topology.Channel]float64) float64 {
	u := util[topology.Channel{Src: pair.Dst, Dst: pair.Dst}]
	if !pair.Local() {
		if lu := util[pair]; lu > u {
			u = lu
		}
	}
	return e.inflation(u)
}

// pairLatency is the effective DRAM latency of a pair under the current
// offered utilizations.
func (e *Engine) pairLatency(pair topology.Channel, util map[topology.Channel]float64) float64 {
	return e.pairBaseLatency(pair) * e.pairInflation(pair, util)
}

// refProfile is a thread's steady-state access profile in the original
// map-keyed form.
type refProfile struct {
	total  float64
	fLevel [5]float64
	// memFrac[pair] is the fraction of accesses served by DRAM of pair.Dst
	// issued from pair.Src (always the thread's node).
	memFrac map[topology.Channel]float64
	// lfbFrac[pair] is the fraction of LFB-served accesses whose line homes
	// on pair.Dst.
	lfbFrac map[topology.Channel]float64
	// traffic[ch] is lines-per-access crossing physical channel ch.
	traffic   map[topology.Channel]float64
	reservoir []record
}

// sortedChannels returns m's keys in ascending dense-index order, the
// iteration order the fast path uses for its accumulations.
func (e *Engine) sortedChannels(m map[topology.Channel]float64) []topology.Channel {
	keys := make([]topology.Channel, 0, len(m))
	for ch := range m {
		keys = append(keys, ch)
	}
	sort.Slice(keys, func(a, b int) bool {
		return e.machine.ChannelIndex(keys[a]) < e.machine.ChannelIndex(keys[b])
	})
	return keys
}

// windowRef drives every thread's stream through the caches one access at a
// time and builds map-keyed profiles.
func (e *Engine) windowRef(ph trace.Phase, bind Binding, phaseIdx uint64) ([]*refProfile, error) {
	e.hier.Flush()
	n := len(bind)
	profiles := make([]*refProfile, n)
	streams := make([]trace.Stream, n)
	active := make([]bool, n)
	rstate := make([]uint64, n)
	for i, spec := range ph.Threads {
		profiles[i] = &refProfile{
			memFrac: make(map[topology.Channel]float64),
			lfbFrac: make(map[topology.Channel]float64),
			traffic: make(map[topology.Channel]float64),
		}
		if spec.Stream != nil && spec.Ops > 0 {
			streams[i] = spec.Stream
			streams[i].Reset(e.cfg.Seed + phaseIdx*1315423911 + uint64(i))
			active[i] = true
			rstate[i] = e.reservoirSeed(phaseIdx, i)
		}
	}

	total := e.cfg.Warmup + e.cfg.Window
	// counts are accumulated as integers during the walk.
	type counts struct {
		total    int
		level    [5]int
		mem, lfb map[topology.Channel]int
		traffic  map[topology.Channel]int
		seen     int // post-warmup accesses observed (reservoir index)
	}
	cs := make([]*counts, n)
	for i := range cs {
		cs[i] = &counts{
			mem:     make(map[topology.Channel]int),
			lfb:     make(map[topology.Channel]int),
			traffic: make(map[topology.Channel]int),
		}
	}

	// Round-robin interleave so the shared L3 and first-touch resolution see
	// concurrent access. Each turn advances one access per active thread.
	for step := 0; step < total; step++ {
		warm := step < e.cfg.Warmup
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			a, ok := streams[i].Next()
			if !ok {
				streams[i].Reset(e.cfg.Seed ^ (uint64(step+1) * 2654435761) ^ uint64(i))
				a, ok = streams[i].Next()
				if !ok {
					return nil, fmt.Errorf("thread %d stream produced no accesses", i)
				}
			}
			cpu := bind[i]
			node := e.machine.NodeOfCPU(cpu)
			r := e.hier.Access(cpu, a.Addr)
			home := node
			if r.Level == cache.MEM || r.Level == cache.LFB {
				home = e.space.HomeFor(a.Addr, node)
				if home == topology.InvalidNode {
					home = node
				}
			}
			if warm {
				continue
			}
			c := cs[i]
			c.total++
			c.level[r.Level]++
			pair := topology.Channel{Src: node, Dst: home}
			switch r.Level {
			case cache.MEM:
				c.mem[pair]++
			case cache.LFB:
				c.lfb[pair]++
			}
			if r.DRAMTraffic {
				if pair.Local() {
					c.traffic[pair]++
				} else {
					c.traffic[pair]++
					c.traffic[topology.Channel{Src: home, Dst: home}]++
				}
			}
			// Uniform reservoir of concrete records.
			p := profiles[i]
			c.seen++
			rec := packRecord(a.Addr, r.Level, home, a.Write)
			if len(p.reservoir) < e.cfg.ReservoirSize {
				p.reservoir = append(p.reservoir, rec)
			} else {
				x := xorshift64(rstate[i])
				rstate[i] = x
				if j := int(x % uint64(c.seen)); j < e.cfg.ReservoirSize {
					p.reservoir[j] = rec
				}
			}
		}
	}

	for i, c := range cs {
		p := profiles[i]
		if c.total == 0 {
			continue
		}
		tf := float64(c.total)
		p.total = tf
		for l := 0; l < 5; l++ {
			p.fLevel[l] = float64(c.level[l]) / tf
		}
		for ch, v := range c.mem {
			p.memFrac[ch] = float64(v) / tf
		}
		for ch, v := range c.lfb {
			p.lfbFrac[ch] = float64(v) / tf
		}
		for ch, v := range c.traffic {
			p.traffic[ch] = float64(v) / tf
		}
	}
	return profiles, nil
}

// integrateRef advances the phase over time epochs until every thread
// finishes, with map-keyed channel accounting.
func (e *Engine) integrateRef(ph trace.Phase, bind Binding, profiles []*refProfile, start float64, rng *rand.Rand) (*PhaseResult, error) {
	n := len(bind)
	lat := e.machine.Latencies()
	remaining := make([]float64, n)
	finish := make([]float64, n)
	sampleAcc := make([]float64, n)
	anyWork := false
	mlp := make([]float64, n)
	for i, spec := range ph.Threads {
		remaining[i] = spec.Ops
		if spec.Ops > 0 && profiles[i].total > 0 {
			anyWork = true
		}
		switch {
		case spec.MLP == 0:
			mlp[i] = 1 // unset: a single outstanding miss
		case spec.MLP < 1:
			return nil, fmt.Errorf("thread %d MLP %g < 1", i, spec.MLP)
		default:
			mlp[i] = spec.MLP
		}
	}
	pr := &PhaseResult{
		Name:         ph.Name,
		ThreadCycles: make([]float64, n),
		Channels:     make(map[topology.Channel]ChannelStats),
	}
	if !anyWork {
		return pr, nil
	}

	lineSize := float64(e.machine.LineSize())
	perSampleOverhead := 0.0
	period := 0.0
	ibs := false
	if e.cfg.Collector != nil {
		period = float64(e.cfg.Collector.Period())
		perSampleOverhead = e.cfg.Collector.OverheadCycles()
		ibs = e.cfg.Collector.Flavor() == pebs.IBS
	}

	// Threads sharing a physical core contend for issue slots.
	coreLoad := make(map[topology.CoreID]float64)
	for i := range bind {
		if ph.Threads[i].Ops > 0 && profiles[i].total > 0 {
			coreLoad[e.machine.CoreOfCPU(bind[i])]++
		}
	}

	// Pre-sorted channel key lists: the accumulations below must add floats
	// in the same ascending-ci order as the fast path.
	memKeys := make([][]topology.Channel, n)
	lfbKeys := make([][]topology.Channel, n)
	trafKeys := make([][]topology.Channel, n)
	for i, p := range profiles {
		memKeys[i] = e.sortedChannels(p.memFrac)
		lfbKeys[i] = e.sortedChannels(p.lfbFrac)
		trafKeys[i] = e.sortedChannels(p.traffic)
	}

	// Unloaded issue rate of each thread (accesses/cycle).
	r0 := make([]float64, n)
	for i := range r0 {
		if remaining[i] <= 0 || profiles[i].total == 0 {
			continue
		}
		p := profiles[i]
		spec := ph.Threads[i]
		memLat := 0.0
		for _, pair := range memKeys[i] {
			memLat += p.memFrac[pair] * e.pairBaseLatency(pair)
		}
		for _, pair := range lfbKeys[i] {
			memLat += p.lfbFrac[pair] * e.lfbBaseLatency(pair)
		}
		cacheLat := p.fLevel[cache.L1]*lat.L1 + p.fLevel[cache.L2]*lat.L2 + p.fLevel[cache.L3]*lat.L3
		per := spec.WorkCycles*coreLoad[e.machine.CoreOfCPU(bind[i])] + (cacheLat+memLat)/mlp[i]
		if per <= 0 {
			per = 0.1
		}
		r0[i] = 1 / per
	}

	now := 0.0
	var dramAccAcc, dramLatAcc float64
	util := make(map[topology.Channel]float64)

	for epoch := 0; epoch < maxEpochs; epoch++ {
		// Offered utilization from the unthrottled rates of running threads.
		for ch := range util {
			delete(util, ch)
		}
		running := false
		for i := range r0 {
			if remaining[i] <= 0 || r0[i] == 0 {
				continue
			}
			running = true
			p := profiles[i]
			for _, ch := range trafKeys[i] {
				util[ch] += r0[i] * p.traffic[ch] * lineSize / e.machine.Bandwidth(ch)
			}
		}
		if !running {
			break
		}
		// Fair-share throughput cap.
		eff := make([]float64, n)
		for i := range r0 {
			if remaining[i] <= 0 || r0[i] == 0 {
				continue
			}
			worst := 1.0
			p := profiles[i]
			for _, ch := range trafKeys[i] {
				if p.traffic[ch] <= 1e-9 {
					continue
				}
				if u := util[ch]; u > worst {
					worst = u
				}
			}
			eff[i] = r0[i] / worst
			if period > 0 && perSampleOverhead > 0 {
				opsPerAccess := 1.0
				if ibs {
					opsPerAccess += ph.Threads[i].WorkCycles
				}
				stall := perSampleOverhead * opsPerAccess * eff[i] / period
				if stall > 0.5 {
					stall = 0.5
				}
				eff[i] *= 1 - stall
			}
		}

		// Run until the next thread completes.
		dt := math.Inf(1)
		for i := range eff {
			if eff[i] > 0 && remaining[i] > 0 {
				if est := remaining[i] / eff[i]; est < dt {
					dt = est
				}
			}
		}
		if math.IsInf(dt, 1) {
			break
		}

		// Advance and account.
		for i := range eff {
			if eff[i] == 0 || remaining[i] <= 0 {
				continue
			}
			done := eff[i] * dt
			if done >= remaining[i]-1e-9 {
				done = remaining[i]
				finish[i] = now + dt
			}
			remaining[i] -= done
			p := profiles[i]
			for _, ch := range trafKeys[i] {
				s := pr.Channels[ch]
				s.Bytes += done * p.traffic[ch] * lineSize
				pr.Channels[ch] = s
			}
			for _, pair := range memKeys[i] {
				cnt := done * p.memFrac[pair]
				l := e.pairLatency(pair, util)
				dramAccAcc += cnt
				dramLatAcc += cnt * l
				if pair.Local() {
					pr.LocalDRAMAccesses += cnt
				} else {
					pr.RemoteDRAMAccesses += cnt
				}
			}
			// PEBS sampling for this thread.
			if period > 0 && len(p.reservoir) > 0 {
				sampleAcc[i] += done
				for sampleAcc[i] >= period {
					sampleAcc[i] -= period
					rec := p.reservoir[rng.Intn(len(p.reservoir))]
					e.emitSampleRef(i, bind[i], rec, start+now+rng.Float64()*dt, util, rng)
				}
			}
		}
		for ch, u := range util {
			s := pr.Channels[ch]
			if u > s.PeakUtil {
				s.PeakUtil = u
			}
			s.AvgUtil += u * dt // normalized at the end
			pr.Channels[ch] = s
		}
		now += dt
		if e.cfg.CycleBudget > 0 && start+now >= e.cfg.CycleBudget {
			pr.Aborted = true
			break
		}
	}

	pr.Cycles = 0.0
	for i := range finish {
		if finish[i] == 0 && ph.Threads[i].Ops > 0 && profiles[i].total > 0 {
			finish[i] = now // ran until the epoch guard
		}
		pr.ThreadCycles[i] = finish[i]
		if finish[i] > pr.Cycles {
			pr.Cycles = finish[i]
		}
	}
	if pr.Cycles > 0 {
		for ch, s := range pr.Channels {
			s.AvgUtil /= pr.Cycles
			pr.Channels[ch] = s
		}
	}
	if dramAccAcc > 0 {
		pr.AvgDRAMLatency = dramLatAcc / dramAccAcc
	}
	return pr, nil
}

// emitSampleRef synthesizes one PEBS sample with map-keyed utilizations.
func (e *Engine) emitSampleRef(thread int, cpu topology.CPUID, rec record, t float64, util map[topology.Channel]float64, rng *rand.Rand) {
	lat := e.machine.Latencies()
	node := e.machine.NodeOfCPU(cpu)
	pair := topology.Channel{Src: node, Dst: rec.home()}
	var l float64
	switch rec.level() {
	case cache.L1:
		l = lat.L1
	case cache.L2:
		l = lat.L2
	case cache.L3:
		l = lat.L3
	case cache.LFB:
		l = e.lfbBaseLatency(pair) * e.pairInflation(pair, util)
	case cache.MEM:
		l = e.pairLatency(pair, util)
	}
	// Measurement noise: PEBS's dedicated latency counter carries ±20%
	// pipeline-induced spread; IBS derives load timing from tagged-op
	// retirement and spreads wider.
	if e.cfg.Collector.Flavor() == pebs.IBS {
		l *= 0.65 + 0.7*rng.Float64()
	} else {
		l *= 0.8 + 0.4*rng.Float64()
	}
	s := pebs.Sample{
		Time:    t,
		CPU:     cpu,
		Thread:  thread,
		Addr:    rec.addr(),
		Level:   rec.level(),
		Latency: l,
		Write:   rec.write(),
	}
	pebs.Resolve(&s, e.machine, e.space)
	// The engine knows the true serving node (replicas resolve locally); the
	// profiler's page-table view may disagree for replicated regions, which
	// is faithful to the real tool. Keep the profiler's view.
	e.cfg.Collector.Add(s)
}

// equivScenario builds one workload twice (fresh address space and streams
// each time, so cache/page state cannot leak between runs) and runs it through
// the dense fast path and the map-based reference oracle.
type equivScenario struct {
	name    string
	threads int
	nodes   int
	pol     memsim.Policy
	flavor  pebs.Flavor
	collect bool
	seed    uint64
}

// TestReferenceEquivalence requires the dense fast path and the reference
// path to produce bit-identical Results and PEBS sample streams. This is the
// strong form of the golden pin: not "close enough", but the same floats.
func TestReferenceEquivalence(t *testing.T) {
	m := topology.XeonE5_4650()
	scenarios := []equivScenario{
		{name: "centralized-pebs", threads: 16, nodes: 4, pol: memsim.BindTo(0), collect: true, seed: 41},
		{name: "interleaved-ibs", threads: 16, nodes: 4, pol: memsim.InterleaveAll(), flavor: pebs.IBS, collect: true, seed: 42},
		{name: "first-touch-nocollect", threads: 8, nodes: 2, pol: memsim.FirstTouchPolicy(), seed: 43},
		{name: "replicated", threads: 8, nodes: 2, pol: memsim.ReplicateAll(), collect: true, seed: 44},
		// Two threads per core: 16 threads share each node's 8 cores.
		{name: "smt-first-touch", threads: 32, nodes: 2, pol: memsim.FirstTouchPolicy(), collect: true, seed: 45},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(ref bool) (*Result, []pebs.Sample) {
				as, ph, _, _ := scanWorkload(t, m, sc.threads, sc.pol, 2e6)
				cfg := testConfig(sc.seed)
				var col *pebs.Collector
				if sc.collect {
					col = pebs.NewCollector(pebs.Config{Flavor: sc.flavor, Period: 1500, OverheadCycles: 900}, sc.seed)
					cfg.Collector = col
				}
				e, err := New(m, as, smallCaches(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				bind, err := EvenBinding(m, sc.threads, sc.nodes)
				if err != nil {
					t.Fatal(err)
				}
				res, err := pathFor(ref)(e, []trace.Phase{ph}, bind)
				if err != nil {
					t.Fatal(err)
				}
				if col != nil {
					return res, col.Samples()
				}
				return res, nil
			}
			fastRes, fastSamples := run(false)
			refRes, refSamples := run(true)
			if !reflect.DeepEqual(fastRes, refRes) {
				t.Errorf("Result diverges between fast and reference paths")
				for pi := range fastRes.Phases {
					f, r := fastRes.Phases[pi], refRes.Phases[pi]
					if f.Cycles != r.Cycles {
						t.Errorf("phase %d Cycles: fast %v ref %v", pi, f.Cycles, r.Cycles)
					}
					if !reflect.DeepEqual(f.Channels, r.Channels) {
						t.Errorf("phase %d Channels: fast %v ref %v", pi, f.Channels, r.Channels)
					}
					if f.AvgDRAMLatency != r.AvgDRAMLatency {
						t.Errorf("phase %d AvgDRAMLatency: fast %v ref %v", pi, f.AvgDRAMLatency, r.AvgDRAMLatency)
					}
				}
			}
			if len(fastSamples) != len(refSamples) {
				t.Fatalf("sample count: fast %d ref %d", len(fastSamples), len(refSamples))
			}
			for i := range fastSamples {
				if fastSamples[i] != refSamples[i] {
					t.Fatalf("sample %d diverges:\nfast %+v\nref  %+v", i, fastSamples[i], refSamples[i])
				}
			}
		})
	}
}

// TestReferenceEquivalenceMultiStream covers the stream implementations that
// exercise the generic Fill fallback and multi-phase runs: the chunked fill
// must reset streams at exactly the same steps as the per-access path. The
// 32-thread binding puts two threads on every core of two nodes; their
// random and gather streams collide in the shared L1/L2 sets, so the
// result depends on the siblings interleaving step by step.
func TestReferenceEquivalenceMultiStream(t *testing.T) {
	m := topology.XeonE5_4650()
	for _, threads := range []int{8, 32} {
		t.Run(fmt.Sprintf("T%d-N2", threads), func(t *testing.T) {
			fast := runMultiStream(t, m, threads, false)
			ref := runMultiStream(t, m, threads, true)
			if !reflect.DeepEqual(fast, ref) {
				t.Errorf("multi-stream Result diverges between fast and reference paths:\nfast %+v\nref  %+v", fast, ref)
			}
		})
	}
}

// runMultiStream runs two phases of mixed streams, threads of them bound
// over two nodes, through the fast path or the reference oracle.
func runMultiStream(t *testing.T, m *topology.Machine, threads int, ref bool) *Result {
	as := memsim.NewAddressSpace(m)
	const base = 0x10000000
	if err := as.Map(base, 8<<20, memsim.BindTo(0), false); err != nil {
		t.Fatal(err)
	}
	mkThreads := func() []trace.ThreadSpec {
		var specs []trace.ThreadSpec
		for i := 0; i < threads; i++ {
			off := uint64(i%8) * (1 << 20)
			var s trace.Stream
			switch i % 4 {
			case 0: // short window: many boundary resets per window sim
				s = &trace.Seq{Base: base + off, Len: 13 * 8, Elem: 8, WriteEvery: 3}
			case 1:
				s = &trace.Rand{Base: base + off, Len: 1 << 18, Elem: 8, WriteFrac: 0.2}
			case 2:
				s = &trace.Gather{IndexBase: base + off, IndexLen: 37 * 4, IndexElem: 4,
					DataBase: base + off + (1 << 19), DataLen: 1 << 18, DataElem: 8}
			default:
				s = &trace.Stencil{InBase: base + off, OutBase: base + off + (1 << 19), X: 7, Y: 5, Z: 3, Elem: 8}
			}
			specs = append(specs, trace.ThreadSpec{Stream: s, Ops: 5e5, MLP: 4, WorkCycles: 2})
		}
		return specs
	}
	phases := []trace.Phase{
		{Name: "a", Threads: mkThreads()},
		{Name: "b", Threads: mkThreads()},
	}
	e, err := New(m, as, smallCaches(), testConfig(77))
	if err != nil {
		t.Fatal(err)
	}
	bind, err := EvenBinding(m, threads, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pathFor(ref)(e, phases, bind)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
