// Package engine executes simulated workloads on a simulated NUMA machine
// and produces execution times, channel traffic and PEBS samples.
//
// The engine uses a two-stage hybrid simulation:
//
//  1. Window simulation. For each phase, every thread's access stream is
//     driven through the cache hierarchy for a bounded, representative
//     window. The window is a round-robin interleave — each step, every
//     thread issues one access, in thread order — so the shared L3 and the
//     first-touch page resolution see concurrent behaviour. One loop
//     (parallel.go) computes it per node group, in chunks staged by cache
//     scope, bit-identical to that interleave at any GOMAXPROCS. The
//     window yields each thread's steady-state access profile: the
//     fraction of accesses served by each memory layer, and the DRAM
//     traffic it pushes over each directed channel. A uniform reservoir of
//     concrete access records is kept per thread for sample generation.
//
//  2. Closed-loop integration. Each thread has an unloaded issue rate set
//     by its profile, compute work and memory-level parallelism. The offered
//     load on each directed channel follows from those rates; a channel
//     oversubscribed by a factor u > 1 caps the throughput of every flow
//     crossing it at 1/u (fair share), and — by Little's law for a closed
//     system with fixed MLP — inflates the effective DRAM latency of those
//     flows by ~u. Integration is event-driven over thread completions,
//     since the contention state only changes when a thread finishes. This
//     is where bandwidth contention lives: a saturated channel inflates the
//     latency of every remote access travelling it — the exact signal
//     (features 6/7 of the paper) DR-BW's classifier learns.
//
// A remote access consumes two resources in series — the inter-socket link
// S→T and the target node's memory controller T — so both utilizations
// throttle it and both queueing terms add to its latency. This reproduces
// the paper's observation that contention can arise in any interconnect
// channel or controller, and that interleaving helps by spreading controller
// load even though it adds link hops.
package engine

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"drbw/internal/cache"
	"drbw/internal/memsim"
	"drbw/internal/obs"
	"drbw/internal/pebs"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// Config tunes the simulation fidelity.
type Config struct {
	// Window is the number of representative accesses simulated per thread
	// per phase (after warmup). <= 0 uses 24576.
	Window int
	// Warmup accesses are driven through the caches but not profiled.
	// 0 (unset) uses Window/4; a negative value requests a true zero-warmup
	// run, profiling from the first access.
	Warmup int
	// ReservoirSize is the number of concrete access records kept per
	// thread for sample generation. <= 0 uses 2048.
	ReservoirSize int
	// QueueCoeff scales the sub-saturation queueing-delay ramp. <= 0 uses 1.
	QueueCoeff float64
	// Seed drives all randomness (window interleaving jitter, reservoirs,
	// sample noise).
	Seed uint64
	// Collector, when non-nil, enables profiling: PEBS samples are emitted
	// and the per-sample overhead is charged to the sampled thread.
	Collector *pebs.Collector
	// SamplerFlavor is advisory: pipelines that construct their own
	// collectors per run (training collection, detection) copy it into
	// their collector configs. The engine itself reads the flavor from the
	// Collector.
	SamplerFlavor pebs.Flavor
	// CycleBudget, when positive, aborts the run once its accumulated
	// cycles reach the budget: the integration stops at the next epoch
	// boundary and any remaining phases — their window simulations
	// included — are skipped, with Result.Aborted set. The placement
	// search uses this as its branch-and-bound cutoff: a candidate run
	// that already exceeds the incumbent's cycle count cannot win, so
	// finishing it buys nothing. Abort points depend only on the budget
	// and the (deterministic) simulation state, never on wall-clock time
	// or scheduling, so budgeted runs stay bit-reproducible. 0 disables.
	CycleBudget float64
}

// maxEpochs bounds the integration loop of one phase, guarding against
// non-termination.
const maxEpochs = 200000

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 24576
	}
	if c.Warmup == 0 {
		c.Warmup = c.Window / 4
	} else if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = 2048
	}
	if c.QueueCoeff <= 0 {
		c.QueueCoeff = 1
	}
	return c
}

// Binding maps thread IDs to the hardware threads they are pinned on.
type Binding []topology.CPUID

// EvenBinding pins t threads across n nodes the way the paper's Tt-Nn
// configurations do: threads are divided evenly among the first n nodes and
// bound to consecutive cores of their node; hardware threads of a core are
// used only after every core of the node has one thread.
func EvenBinding(m *topology.Machine, threads, nodes int) (Binding, error) {
	if nodes <= 0 || nodes > m.Nodes() {
		return nil, fmt.Errorf("engine: %d nodes requested on a %d-node machine", nodes, m.Nodes())
	}
	if threads <= 0 || threads%nodes != 0 {
		return nil, fmt.Errorf("engine: %d threads do not divide evenly among %d nodes", threads, nodes)
	}
	per := threads / nodes
	bind := make(Binding, 0, threads)
	for n := 0; n < nodes; n++ {
		cpus := m.CPUsOfNode(topology.NodeID(n))
		if per > len(cpus) {
			return nil, fmt.Errorf("engine: %d threads per node exceed %d hardware threads", per, len(cpus))
		}
		// CPUsOfNode is sorted: physical cores first, then HT siblings.
		for i := 0; i < per; i++ {
			bind = append(bind, cpus[i])
		}
	}
	return bind, nil
}

// ChannelStats aggregates one channel over a phase. The utilizations are
// offered load — the demand the running threads' unthrottled rates put on
// the channel, over its bandwidth — not carried load: an oversubscribed
// channel reads above 1 (the factor by which the fair share throttles the
// flows crossing it), while Bytes never exceeds what the bandwidth carries.
type ChannelStats struct {
	Bytes    float64 // total bytes carried
	PeakUtil float64 // highest epoch offered utilization; may exceed 1
	AvgUtil  float64 // time-weighted mean offered utilization; may exceed 1
}

// PhaseResult reports one executed phase.
type PhaseResult struct {
	Name   string
	Cycles float64 // wall-clock cycles (slowest thread)
	// Aborted reports that the phase stopped at an epoch boundary because
	// the run's CycleBudget was exhausted; Cycles then holds the elapsed
	// time at the abort, not a completion time.
	Aborted bool
	// ThreadCycles is each thread's completion time.
	ThreadCycles []float64
	Channels     map[topology.Channel]ChannelStats
	// LocalDRAMAccesses / RemoteDRAMAccesses are estimated true totals (not
	// sample counts).
	LocalDRAMAccesses  float64
	RemoteDRAMAccesses float64
	// AvgDRAMLatency is the demand-weighted mean effective DRAM latency.
	AvgDRAMLatency float64
}

// Result reports a full run.
type Result struct {
	Phases []PhaseResult
	Cycles float64
	// Aborted reports that the run was cut off by Config.CycleBudget:
	// Cycles is at least the budget but not a completion time, and phases
	// after the aborted one were never simulated.
	Aborted bool

	// rec is the window recording of a Record run (replay.go).
	rec *recording
}

// Channel returns merged stats for ch across all phases.
func (r *Result) Channel(ch topology.Channel) ChannelStats {
	var out ChannelStats
	var cycles float64
	for _, p := range r.Phases {
		s := p.Channels[ch]
		out.Bytes += s.Bytes
		if s.PeakUtil > out.PeakUtil {
			out.PeakUtil = s.PeakUtil
		}
		out.AvgUtil += s.AvgUtil * p.Cycles
		cycles += p.Cycles
	}
	if cycles > 0 {
		out.AvgUtil /= cycles
	}
	return out
}

// RemoteDRAMAccesses sums the estimated remote access totals of all phases.
func (r *Result) RemoteDRAMAccesses() float64 {
	var t float64
	for _, p := range r.Phases {
		t += p.RemoteDRAMAccesses
	}
	return t
}

// LocalDRAMAccesses sums the estimated local access totals of all phases.
func (r *Result) LocalDRAMAccesses() float64 {
	var t float64
	for _, p := range r.Phases {
		t += p.LocalDRAMAccesses
	}
	return t
}

// AvgDRAMLatency returns the demand-weighted mean DRAM latency of the run.
func (r *Result) AvgDRAMLatency() float64 {
	var w, acc float64
	for _, p := range r.Phases {
		d := p.LocalDRAMAccesses + p.RemoteDRAMAccesses
		acc += p.AvgDRAMLatency * d
		w += d
	}
	if w == 0 {
		return 0
	}
	return acc / w
}

// Engine runs workloads on one machine + address space.
type Engine struct {
	machine *topology.Machine
	space   *memsim.AddressSpace
	hier    *cache.Hierarchy
	hcfg    cache.Config
	cfg     Config

	// Dense per-channel tables indexed by ci = src*nn+dst (the layout of
	// topology.ChannelIndex), precomputed once so the hot loops never touch a
	// map or recompute an unloaded latency.
	nn      int                // nodes
	nch     int                // nn*nn directed channels
	chans   []topology.Channel // ci -> Channel
	bw      []float64          // ci -> bytes/cycle
	baseLat []float64          // ci -> unloaded DRAM latency
	lfbLat  []float64          // ci -> unloaded LFB-served latency
	dstLoc  []int              // ci -> index of {Dst,Dst}, the target controller
	nodeOf  []topology.NodeID  // cpu -> node
	coreOf  []topology.CoreID  // cpu -> core
	// lineBits is log2 of the line size, for recorded line numbers.
	lineBits uint

	// gauges are the cached per-channel utilization gauges (metrics.go),
	// published at phase boundaries.
	gauges *chanGauges

	// chunks and outs are the window's chunk scratch (see window).
	chunks []trace.Access
	outs   []uint8
}

// New builds an engine. hcfg selects the cache geometry (zero value =
// E5-4650 defaults).
func New(m *topology.Machine, as *memsim.AddressSpace, hcfg cache.Config, cfg Config) (*Engine, error) {
	h, err := cache.NewHierarchy(m, hcfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{machine: m, space: as, hier: h, hcfg: hcfg, cfg: cfg.withDefaults()}
	e.lineBits = uint(bits.TrailingZeros(uint(m.LineSize())))
	e.nn = m.Nodes()
	e.nch = m.NumChannels()
	e.bw = m.BandwidthTable()
	e.nodeOf = m.CPUNodeTable()
	e.coreOf = m.CPUCoreTable()
	e.chans = make([]topology.Channel, e.nch)
	e.baseLat = make([]float64, e.nch)
	e.lfbLat = make([]float64, e.nch)
	e.dstLoc = make([]int, e.nch)
	for ci := 0; ci < e.nch; ci++ {
		ch := m.ChannelAt(ci)
		e.chans[ci] = ch
		e.baseLat[ci] = e.pairBaseLatency(ch)
		e.lfbLat[ci] = e.lfbBaseLatency(ch)
		e.dstLoc[ci] = int(ch.Dst)*e.nn + int(ch.Dst)
	}
	e.gauges = channelGauges(e.nn)
	return e, nil
}

// Machine returns the engine's machine.
func (e *Engine) Machine() *topology.Machine { return e.machine }

// Close releases the engine's cache hierarchy back to the build pool so the
// next engine on the same machine and cache configuration skips the
// construction cost. The engine must not be used after Close.
func (e *Engine) Close() {
	if e.hier != nil {
		e.hier.Release()
		e.hier = nil
	}
}

// Space returns the engine's address space.
func (e *Engine) Space() *memsim.AddressSpace { return e.space }

// record is one reservoir entry from the window simulation, packed into a
// single word so the reservoir-sampling hot path builds and stores 8 bytes
// per draw instead of a multi-word struct: bits 0..46 hold the address (the
// cache layer rejects anything wider), bits 47..49 the serving level, bits
// 50..57 the home node, and bit 58 the write flag.
type record uint64

const (
	recAddrBits   = 47
	recAddrMask   = 1<<recAddrBits - 1
	recLevelShift = recAddrBits
	recHomeShift  = recLevelShift + 3
	recWriteShift = recHomeShift + 8
)

// packRecord builds a record. home must already be normalized (never
// InvalidNode); topology.MaxNodes keeps it within the eight home bits, and
// level fits the three bits by construction.
func packRecord(addr uint64, level cache.Level, home topology.NodeID, write bool) record {
	r := record(addr&recAddrMask) |
		record(level)<<recLevelShift |
		record(uint8(home))<<recHomeShift
	if write {
		r |= 1 << recWriteShift
	}
	return r
}

func (r record) addr() uint64          { return uint64(r) & recAddrMask }
func (r record) level() cache.Level    { return cache.Level(r >> recLevelShift & 7) }
func (r record) home() topology.NodeID { return topology.NodeID(r >> recHomeShift & 0xff) }
func (r record) write() bool           { return r>>recWriteShift&1 != 0 }

// profile is a thread's steady-state access profile. The per-channel tables
// are dense, indexed by ci = src*nn+dst; the *Cis lists hold the ascending
// indices of the nonzero entries so the integration loops touch only live
// channels, in a deterministic order.
type profile struct {
	total float64
	// fLevel[cache.L1..] are fractions of accesses served per layer
	// (prefetched accesses count under LFB).
	fLevel [5]float64
	// memFrac[ci] is the fraction of accesses served by DRAM of dst issued
	// from src (always the thread's node).
	memFrac []float64
	// lfbFrac[ci] is the fraction of LFB-served accesses whose line homes
	// on dst.
	lfbFrac []float64
	// traffic[ci] is lines-per-access crossing physical channel ci (remote
	// accesses contribute to both the link and the target controller).
	traffic                 []float64
	memCis, lfbCis, trafCis []int32
	reservoir               []record
}

// splitmix64 is the standard 64-bit seed mixer; it turns structured seeds
// (seed ^ phase ^ thread) into well-distributed xorshift states.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// reservoirSeed derives the per-thread xorshift state for the window
// reservoir. The test-side reference oracle draws from the same state.
func (e *Engine) reservoirSeed(phaseIdx uint64, thread int) uint64 {
	s := splitmix64(e.cfg.Seed ^ phaseIdx*1315423911 ^ uint64(thread)*0x9e3779b97f4a7c15)
	if s == 0 {
		s = 0x9e3779b97f4a7c15 // xorshift must not start at zero
	}
	return s
}

// xorshift64 advances the reservoir RNG state; callers keep the returned
// state. One multiply-free step is all the reservoir draw needs.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// Run executes phases with the given thread binding. Every phase must have
// exactly len(bind) thread specs.
func (e *Engine) Run(phases []trace.Phase, bind Binding) (*Result, error) {
	return e.run(phases, bind, nil, nil)
}

// run is the body of Run, Record and Replay: src, when non-nil, is the
// recording whose matching phases replay; rec, when non-nil, receives every
// simulated window.
func (e *Engine) run(phases []trace.Phase, bind Binding, src, rec *recording) (*Result, error) {
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
	var st runStats
	// Causal tracing at phase granularity only: the span handles are no-ops
	// unless an exporter is installed, so the window and integration loops
	// stay untouched and the allocation gate holds.
	sp := obs.BeginSpan("engine.run")
	sp.SetInt("phases", int64(len(phases)))
	rng := rand.New(rand.NewSource(int64(e.cfg.Seed) ^ 0x51ed2701))
	if c := e.cfg.Collector; c != nil {
		c.Reserve(sampleBound(phases, c.Period()))
	}
	for pi, ph := range phases {
		if len(ph.Threads) != len(bind) {
			sp.End()
			return nil, fmt.Errorf("engine: phase %q has %d threads, binding has %d", ph.Name, len(ph.Threads), len(bind))
		}
		if e.cfg.CycleBudget > 0 && now >= e.cfg.CycleBudget {
			// Budget already spent: skip the remaining phases entirely,
			// window simulations included.
			res.Aborted = true
			break
		}
		replay := src.phase(pi, ph)
		replayed := int64(0)
		if replay != nil {
			replayed = 1
		}
		ps := sp.Child("engine.phase")
		ps.SetInt("phase", int64(pi))
		ps.SetInt("replayed", replayed)
		pr, err := e.runPhase(ph, bind, now, rng, uint64(pi), &st, replay, rec)
		if err != nil {
			ps.End()
			sp.End()
			return nil, fmt.Errorf("engine: phase %q: %w", ph.Name, err)
		}
		ps.SetFloat("cycles", pr.Cycles)
		ps.End()
		now += pr.Cycles
		res.Phases = append(res.Phases, *pr)
		if pr.Aborted {
			res.Aborted = true
			break
		}
	}
	res.Cycles = now
	sp.SetFloat("cycles", now)
	sp.End()
	st.merge()
	return res, nil
}

// sampleBound is an upper bound on the samples a run of phases emits, the
// threshold-dropped ones included: integrate emits one sample per period of
// a thread's completed accesses, so a thread contributes at most
// floor(Ops/period), plus one for the rounding of its float accumulation.
// The sum saturates at math.MaxInt; the collector caps the reservation.
func sampleBound(phases []trace.Phase, period int) int {
	bound := 0.0
	for _, ph := range phases {
		for _, t := range ph.Threads {
			if t.Ops > 0 {
				bound += math.Floor(t.Ops/float64(period)) + 1
			}
		}
	}
	if bound >= math.MaxInt {
		return math.MaxInt
	}
	return int(bound)
}

func (e *Engine) runPhase(ph trace.Phase, bind Binding, start float64, rng *rand.Rand, phaseIdx uint64, st *runStats, replay []threadRecord, rec *recording) (*PhaseResult, error) {
	st.phases++
	profiles, err := e.window(ph, bind, phaseIdx, st, replay, rec)
	if err != nil {
		return nil, err
	}
	return e.integrate(ph, bind, profiles, start, rng, st)
}

// streamBatch is the window's chunk length: how many steps the window
// advances each stage at a time (parallel.go), and so how many accesses each
// thread's stream Fill pulls at once, amortizing the per-access interface
// dispatch of Stream.Next.
const streamBatch = 256

// winThread is the per-thread state of one simulation window, gathered into
// one struct so the hot loop does a single indexed load per thread per step
// instead of touching a dozen parallel slices.
type winThread struct {
	idx  int // thread index (seeds, profiles)
	node topology.NodeID
	core topology.CoreID

	stream trace.Stream
	// atEnd records that the last Fill came up short: the stream hit its
	// window boundary, and the Reset the per-access path performed there is
	// deferred to the step that needs the next access, with that step's
	// seed.
	atEnd bool
	// The current chunk: the thread's accesses for its steps and, for each,
	// the level that served it, with outTraffic set when it pushed a line
	// across a memory channel. Both are views of the engine's scratch.
	chunk []trace.Access
	out   []uint8
	// The thread's last first-touch claim and the start of its page: streams
	// hit the same page many times in a row, so the claim-map lookup is
	// nearly always redundant.
	ftStart uint64
	ft      *ftClaim

	rstate uint64   // reservoir xorshift state
	seen   int      // post-warmup accesses observed (reservoir index)
	res    []record // reservoir, handed to prof after the loop
	// recording makes account keep the DRAM- and LFB-served accesses in
	// rec (replay.go).
	recording bool
	rec       memLog
	total     int
	level     [5]int
	mem       []int // per-channel counters, indexed by ci = src*nn+dst
	lfb       []int
	traf      []int
	prof      *profile
}

// outTraffic flags a chunk result whose access caused DRAM traffic; the low
// bits hold its cache.Level.
const outTraffic = 8

// next fills the thread's chunk with its accesses for the n steps starting
// at step.
func (t *winThread) next(n int, seed uint64, step int) error {
	t.chunk = t.chunk[:n]
	for k := 0; k < n; {
		m := 0
		if !t.atEnd {
			m = trace.Fill(t.stream, t.chunk[k:])
		}
		if m == 0 {
			// The stream is at its window boundary: this step is where Next
			// would have returned ok=false.
			t.stream.Reset(seed ^ (uint64(step+k+1) * 2654435761) ^ uint64(t.idx))
			if m = trace.Fill(t.stream, t.chunk[k:]); m == 0 {
				return fmt.Errorf("thread %d stream produced no accesses", t.idx)
			}
		}
		t.atEnd = m < n-k
		k += m
	}
	return nil
}

// window drives every thread's stream through the caches and builds
// profiles; with replay non-nil it replays those recorded threads instead
// (replay.go), and with rec non-nil it records the simulated window.
// Per-channel accounting is dense (indexed by ci = src*nn+dst) in flat
// integer tables; map/struct forms exist only at phase boundaries.
func (e *Engine) window(ph trace.Phase, bind Binding, phaseIdx uint64, st *runStats, replay []threadRecord, rec *recording) ([]*profile, error) {
	n := len(bind)
	nch := e.nch
	profiles := make([]*profile, n)
	// act holds the running threads in thread order; the interleave visits
	// them exactly as the per-access path visited the active subset.
	act := make([]winThread, 0, n)
	for i, spec := range ph.Threads {
		profiles[i] = &profile{}
		if spec.Stream == nil || spec.Ops <= 0 {
			continue
		}
		act = append(act, winThread{
			idx:    i,
			node:   e.nodeOf[bind[i]],
			core:   e.coreOf[bind[i]],
			stream: spec.Stream,
			mem:    make([]int, nch),
			lfb:    make([]int, nch),
			traf:   make([]int, nch),
			prof:   profiles[i],
		})
	}
	var err error
	if replay != nil {
		err = e.replayWindow(act, replay)
	} else {
		err = e.simulateWindow(act, phaseIdx, st, rec)
	}
	if err != nil {
		return nil, err
	}

	for ti := range act {
		t := &act[ti]
		t.prof.reservoir = t.res
		if t.total == 0 {
			continue
		}
		if replay != nil {
			st.replayed += uint64(t.total)
		} else {
			st.accesses += uint64(t.total)
			for l := 0; l < 5; l++ {
				st.level[l] += uint64(t.level[l])
			}
		}
		p := t.prof
		tf := float64(t.total)
		p.total = tf
		for l := 0; l < 5; l++ {
			p.fLevel[l] = float64(t.level[l]) / tf
		}
		p.memFrac = make([]float64, nch)
		p.lfbFrac = make([]float64, nch)
		p.traffic = make([]float64, nch)
		for ci := 0; ci < nch; ci++ {
			if v := t.mem[ci]; v > 0 {
				p.memFrac[ci] = float64(v) / tf
				p.memCis = append(p.memCis, int32(ci))
			}
			if v := t.lfb[ci]; v > 0 {
				p.lfbFrac[ci] = float64(v) / tf
				p.lfbCis = append(p.lfbCis, int32(ci))
			}
			if v := t.traf[ci]; v > 0 {
				p.traffic[ci] = float64(v) / tf
				p.trafCis = append(p.trafCis, int32(ci))
			}
		}
	}
	return profiles, nil
}

// simulateWindow resets act's streams and reservoirs, runs the window
// through the flushed caches and, with rec non-nil, records it.
func (e *Engine) simulateWindow(act []winThread, phaseIdx uint64, st *runStats, rec *recording) error {
	e.hier.Flush()
	for ti := range act {
		t := &act[ti]
		t.stream.Reset(e.cfg.Seed + phaseIdx*1315423911 + uint64(t.idx))
		t.rstate = e.reservoirSeed(phaseIdx, t.idx)
		t.res = make([]record, 0, e.cfg.ReservoirSize)
		t.recording = rec != nil
	}
	// Chunk scratch: one streamBatch-long slice of accesses and results per
	// thread, kept by the engine so later windows reuse it.
	if need := len(act) * streamBatch; len(e.chunks) < need {
		e.chunks = make([]trace.Access, need)
		e.outs = make([]uint8, need)
	}
	for ti := range act {
		lo, hi := ti*streamBatch, (ti+1)*streamBatch
		act[ti].chunk = e.chunks[lo:hi:hi]
		act[ti].out = e.outs[lo:hi:hi]
	}
	if err := e.runWindow(act); err != nil {
		return err
	}
	st.warmup += uint64(e.cfg.Warmup) * uint64(len(act))
	if rec != nil {
		rec.save(act)
	}
	return nil
}

// pairBaseLatency returns the unloaded DRAM latency for a (src,dst) pair.
func (e *Engine) pairBaseLatency(pair topology.Channel) float64 {
	lat := e.machine.Latencies()
	if pair.Local() {
		return lat.LocalDRAM
	}
	return lat.RemoteDRAM
}

// lfbBaseLatency is the unloaded cost of an access served by a line fill
// buffer whose line is in flight from pair's DRAM: the configured LFB wait,
// scaled up when the line crosses a socket — a remote fill takes longer to
// arrive, so the buffered demand load waits proportionally longer.
func (e *Engine) lfbBaseLatency(pair topology.Channel) float64 {
	lat := e.machine.Latencies()
	return lat.LFB * e.pairBaseLatency(pair) / lat.LocalDRAM
}

// inflation maps a channel's offered utilization to a latency multiplier.
// Below saturation it is a gentle queueing ramp; past saturation the queue
// grows with the oversubscription factor (a closed system with fixed MLP has
// latency proportional to offered/serviced load — Little's law). QueueCoeff
// scales the sub-saturation ramp.
func (e *Engine) inflation(u float64) float64 {
	k := e.cfg.QueueCoeff
	switch {
	case u <= 0:
		return 1
	case u <= 0.7:
		return 1 + k*0.45*u
	case u <= 1:
		d := u - 0.7
		return 1 + k*(0.45*u+5.5*d*d)
	default:
		return 1 + k*(0.45+5.5*0.09) + (u - 1)
	}
}

// pairInflationCi combines the link and target-controller pressure of
// channel ci over the dense utilization table: the binding (most loaded)
// resource dominates the queue.
func (e *Engine) pairInflationCi(ci int, util []float64) float64 {
	dl := e.dstLoc[ci]
	u := util[dl]
	if ci != dl {
		if lu := util[ci]; lu > u {
			u = lu
		}
	}
	return e.inflation(u)
}

// integrate advances the phase over time epochs until every thread finishes.
func (e *Engine) integrate(ph trace.Phase, bind Binding, profiles []*profile, start float64, rng *rand.Rand, st *runStats) (*PhaseResult, error) {
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

	// Threads sharing a physical core contend for issue slots; compute-bound
	// work degrades with SMT sharing while memory stalls overlap freely.
	coreLoad := make([]float64, e.machine.NumCores())
	for i := range bind {
		if ph.Threads[i].Ops > 0 && profiles[i].total > 0 {
			coreLoad[e.coreOf[bind[i]]]++
		}
	}

	// Unloaded issue rate of each thread (accesses/cycle): constant per
	// phase because the profile is steady-state. Channel sums iterate the
	// nonzero-index lists in ascending ci order, so float accumulation order
	// is deterministic (maps would reassociate the sums run to run).
	r0 := make([]float64, n)
	for i := range r0 {
		if remaining[i] <= 0 || profiles[i].total == 0 {
			continue
		}
		p := profiles[i]
		spec := ph.Threads[i]
		memLat := 0.0
		for _, ci := range p.memCis {
			memLat += p.memFrac[ci] * e.baseLat[ci]
		}
		for _, ci := range p.lfbCis {
			memLat += p.lfbFrac[ci] * e.lfbLat[ci]
		}
		cacheLat := p.fLevel[cache.L1]*lat.L1 + p.fLevel[cache.L2]*lat.L2 + p.fLevel[cache.L3]*lat.L3
		per := spec.WorkCycles*coreLoad[e.coreOf[bind[i]]] + (cacheLat+memLat)/mlp[i]
		if per <= 0 {
			per = 0.1
		}
		r0[i] = 1 / per
	}

	now := 0.0
	var dramAccAcc, dramLatAcc float64
	nch := e.nch
	util := make([]float64, nch)
	bytesAcc := make([]float64, nch)
	peakUtil := make([]float64, nch)
	avgUtilAcc := make([]float64, nch)
	eff := make([]float64, n)
	nodes := make([]topology.NodeID, n)
	for i := range bind {
		nodes[i] = e.nodeOf[bind[i]]
	}

	for epoch := 0; epoch < maxEpochs; epoch++ {
		// Offered utilization from the unthrottled rates of running threads.
		for ci := range util {
			util[ci] = 0
		}
		running := false
		for i := range r0 {
			if remaining[i] <= 0 || r0[i] == 0 {
				continue
			}
			running = true
			p := profiles[i]
			for _, ci := range p.trafCis {
				util[ci] += r0[i] * p.traffic[ci] * lineSize / e.bw[ci]
			}
		}
		if !running {
			break
		}
		// Fair-share throughput: every flow crossing an oversubscribed
		// channel is scaled by the worst oversubscription it crosses, which
		// brings each channel to at most its capacity.
		for i := range r0 {
			eff[i] = 0
			if remaining[i] <= 0 || r0[i] == 0 {
				continue
			}
			worst := 1.0
			p := profiles[i]
			for _, ci := range p.trafCis {
				if p.traffic[ci] <= 1e-9 {
					continue
				}
				if u := util[ci]; u > worst {
					worst = u
				}
			}
			eff[i] = r0[i] / worst
			// A sample stalls the core for the assist+drain cost; the
			// stall steals wall-clock time even from bandwidth-capped
			// threads (the channel idles while the core is stopped), so it
			// applies after the throughput cap. IBS counts micro-ops, so
			// compute-heavy threads take proportionally more interrupts
			// than PEBS would for the same memory traffic.
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

		// Run until the next thread completes (contention state is constant
		// in between).
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
			for _, ci := range p.trafCis {
				bytesAcc[ci] += done * p.traffic[ci] * lineSize
			}
			for _, ci := range p.memCis {
				cnt := done * p.memFrac[ci]
				l := e.baseLat[ci] * e.pairInflationCi(int(ci), util)
				dramAccAcc += cnt
				dramLatAcc += cnt * l
				if int(ci) == e.dstLoc[ci] {
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
					e.emitSample(i, bind[i], nodes[i], rec, start+now+rng.Float64()*dt, util, rng)
					st.samples++
				}
			}
		}
		for ci := 0; ci < nch; ci++ {
			u := util[ci]
			if u == 0 {
				continue
			}
			if u > peakUtil[ci] {
				peakUtil[ci] = u
			}
			avgUtilAcc[ci] += u * dt // normalized at the end
		}
		now += dt
		st.epochs++
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
	// Dense accumulators convert to the public map form only here, at the
	// phase boundary; channels that never carried traffic or utilization get
	// no entry, matching the map-based accounting.
	for ci := 0; ci < nch; ci++ {
		if bytesAcc[ci] == 0 && peakUtil[ci] == 0 && avgUtilAcc[ci] == 0 {
			continue
		}
		s := ChannelStats{Bytes: bytesAcc[ci], PeakUtil: peakUtil[ci], AvgUtil: avgUtilAcc[ci]}
		if pr.Cycles > 0 {
			s.AvgUtil /= pr.Cycles
		}
		// Phase-boundary utilization snapshot for the metrics endpoints.
		e.gauges.peak[ci].Max(s.PeakUtil)
		e.gauges.avg[ci].Set(s.AvgUtil)
		pr.Channels[e.chans[ci]] = s
	}
	if dramAccAcc > 0 {
		pr.AvgDRAMLatency = dramLatAcc / dramAccAcc
	}
	return pr, nil
}

// emitSample synthesizes one PEBS sample from a reservoir record under the
// current contention state.
func (e *Engine) emitSample(thread int, cpu topology.CPUID, node topology.NodeID, rec record, t float64, util []float64, rng *rand.Rand) {
	lat := e.machine.Latencies()
	ci := int(node)*e.nn + int(rec.home())
	var l float64
	switch rec.level() {
	case cache.L1:
		l = lat.L1
	case cache.L2:
		l = lat.L2
	case cache.L3:
		l = lat.L3
	case cache.LFB:
		l = e.lfbLat[ci] * e.pairInflationCi(ci, util)
	case cache.MEM:
		l = e.baseLat[ci] * e.pairInflationCi(ci, util)
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
