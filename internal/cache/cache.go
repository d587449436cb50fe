// Package cache simulates the on-chip memory hierarchy of a NUMA machine:
// per-core L1 and L2 set-associative caches, one shared inclusive L3 per
// socket, line fill buffers (LFBs), and a per-core stream prefetcher.
//
// The hierarchy determines two things the rest of DR-BW depends on:
//
//  1. The *data source* a PEBS sample would report for an access — L1, L2,
//     L3, LFB, or DRAM. Table I's features count LFB and DRAM samples and
//     average their latencies, so the source classification must be faithful.
//  2. Which accesses generate DRAM traffic at all, which is what the
//     bandwidth-contention model in internal/engine meters. Notably, a
//     hardware prefetcher hides *latency* (a demand load finds its line
//     in flight and is served from an LFB) but not *bandwidth* — prefetched
//     lines still cross the interconnect. The paper calls out exactly this
//     effect as the reason count-based contention heuristics mispredict.
package cache

import (
	"fmt"
	"runtime"
	"sync"

	"drbw/internal/topology"
)

// Level identifies the hierarchy level that served an access.
type Level int

// Hierarchy levels in increasing distance from the core.
const (
	L1 Level = iota
	L2
	L3
	LFB
	MEM // served by DRAM (local or remote is decided by page placement)
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case LFB:
		return "LFB"
	case MEM:
		return "MEM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Result describes how the hierarchy served one access.
type Result struct {
	Level Level
	// DRAMTraffic reports whether the access caused a cache line to cross a
	// memory channel (demand miss or prefetch fill). An LFB access with
	// traffic is one the stream prefetcher covered: the latency of a line
	// fill buffer, the bandwidth of a DRAM fetch.
	DRAMTraffic bool
}

// Config sets the geometry of the hierarchy. Zero fields take the E5-4650
// defaults from DefaultConfig.
type Config struct {
	L1Size, L1Assoc int // per core
	L2Size, L2Assoc int // per core
	L3Size, L3Assoc int // per socket, shared
	LFBEntries      int // outstanding misses tracked per core
	// PrefetchDepth is how many consecutive line accesses establish a
	// stream; once established, subsequent sequential demand misses are
	// served from an LFB. Zero takes the default (4); negative disables
	// prefetching entirely.
	PrefetchDepth int
	// PrefetchStreams is how many concurrent streams each core tracks.
	PrefetchStreams int
}

// DefaultConfig mirrors the paper's Xeon E5-4650: 32 KB 8-way L1, 256 KB
// 8-way L2, 20 MB 20-way shared L3 per socket, 10 LFBs, and a stream
// prefetcher that locks on after 4 sequential lines.
func DefaultConfig() Config {
	return Config{
		L1Size: 32 << 10, L1Assoc: 8,
		L2Size: 256 << 10, L2Assoc: 8,
		L3Size: 20 << 20, L3Assoc: 20,
		LFBEntries:      10,
		PrefetchDepth:   4,
		PrefetchStreams: 8,
	}
}

// setAssoc is a single set-associative cache with LRU replacement.
//
// Instead of zeroing its arrays, reset snapshots the LRU clock into floor:
// an entry is live only while use > floor, so stale entries fail the hit
// check and are filled before any live way is evicted — exactly the
// behaviour of genuinely empty ways. That makes reset O(1), which matters
// because the engine flushes the whole hierarchy at every window boundary.
//
// The live ways of a set always form a prefix of it: a miss fills the
// first stale way, and only a full set evicts. A scan therefore stops at
// the first stale way, so the sparsely filled sets that follow a flush
// cost a few compares instead of a full scan.
type setAssoc struct {
	sets     int
	ways     int
	lineBits uint
	// w packs one cache entry per uint64: the low wayTagBits hold the line
	// number biased by +1 (0 = never filled), the high bits hold the LRU
	// clock of the last touch, live only while > floor. 8 bytes per entry
	// halves both the construction-time zeroing and the memory traffic of
	// every way scan relative to separate tag/use words — the simulated L3
	// arrays are far larger than the host's caches, so scans are
	// memory-bound.
	w     []uint64 // sets*ways entries
	clock uint64
	floor uint64 // clock value at the last reset
	// Same-line fast path: the most recently accessed line is always
	// resident (a hit refreshes it, a miss fills it), so a repeat access is
	// a guaranteed hit at lastIdx. Sequential streams touch each 64-byte
	// line several times in a row, so this skips most way scans.
	lastTag uint64 // line+1 of the previous access; 0 after reset
	lastIdx int
}

const (
	// wayTagBits bounds the supported address space: line numbers must fit
	// in the tag field, so addresses beyond 2^(wayTagBits+lineBits) are
	// rejected loudly. 41 bits cover the 0x7f00_0000_0000 static bases the
	// workload models use with room to spare.
	wayTagBits = 41
	wayTagMask = 1<<wayTagBits - 1
	// wayUseMax is where the packed LRU clock would overflow; bump
	// renormalizes the stamps (order-preserving) before that happens.
	wayUseMax = 1<<(64-wayTagBits) - 1
)

func newSetAssoc(size, assoc, lineSize int) (*setAssoc, error) {
	if size <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("cache: size %d and associativity %d must be positive", size, assoc)
	}
	lines := size / lineSize
	if lines < assoc || lines%assoc != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible into %d ways", lines, assoc)
	}
	if assoc > 32 {
		return nil, fmt.Errorf("cache: associativity %d exceeds the supported maximum of 32", assoc)
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	return &setAssoc{
		sets: sets, ways: assoc, lineBits: lineBits,
		w: make([]uint64, sets*assoc),
	}, nil
}

// access looks up the line holding addr, inserting it on miss. It returns
// whether the access hit.
func (c *setAssoc) access(addr uint64) bool {
	tag := lineTag(addr, c.lineBits)
	if tag == c.lastTag {
		c.w[c.lastIdx] = tag | c.bump()<<wayTagBits
		return true
	}
	i, hit := c.lookup(tag)
	c.lastTag, c.lastIdx = tag, i
	return hit
}

// lineTag is the biased tag of addr's line (tag 0 denotes an empty way). It
// panics when the line number does not fit the packed tag field.
func lineTag(addr uint64, lineBits uint) uint64 {
	tag := addr>>lineBits + 1
	if tag > wayTagMask {
		panic(rangeError(addr))
	}
	return tag
}

// rangeError is lineTag's panic value: an address whose line number does
// not fit the tag field. Formatting it lazily keeps lineTag inlinable.
type rangeError uint64

func (a rangeError) Error() string {
	return fmt.Sprintf("cache: address %#x beyond the supported range", uint64(a))
}

// bump advances the LRU clock, renormalizing the packed stamps just before
// the use field would overflow.
func (c *setAssoc) bump() uint64 {
	if c.clock+1 >= wayUseMax {
		c.renorm()
	}
	c.clock++
	return c.clock
}

// renorm compacts every live LRU stamp while preserving its set's recency
// order, resetting the clock to small values. Victim choice compares stamps
// only within one set and hits only check use > floor, so behaviour is
// bit-identical to an unbounded clock. Runs once per ~8M accesses to this
// cache, but its cost still matters: recycled hierarchies carry their clock
// across runs, so long batch sweeps renorm at a steady rate, and an earlier
// sort.Slice-per-set implementation made each renorm of a large L3 allocate
// tens of thousands of closure+swapper objects — the dominant allocation
// source of whole batch sweeps. The insertion sort below is allocation-free
// (ways ≤ 20) and orders the ways identically.
func (c *setAssoc) renorm() {
	var ord [32]int // max associativity supported by renorm's scratch
	for base := 0; base < len(c.w); base += c.ways {
		w := c.w[base : base+c.ways]
		// Insertion sort of way indices by stamp, ascending. Stable, so ties
		// between stale entries keep index order (immaterial, but it matches
		// the previous sort exactly on live entries, whose stamps are unique).
		n := 0
		for i := range w {
			stamp := w[i] >> wayTagBits
			j := n
			for j > 0 && w[ord[j-1]]>>wayTagBits > stamp {
				ord[j] = ord[j-1]
				j--
			}
			ord[j] = i
			n++
		}
		rank := uint64(0)
		for _, i := range ord[:n] {
			if w[i]>>wayTagBits <= c.floor {
				w[i] &= wayTagMask // stale or empty: lowest possible stamp
				continue
			}
			rank++
			w[i] = w[i]&wayTagMask | rank<<wayTagBits
		}
	}
	c.floor = 0
	c.clock = uint64(c.ways) // ≥ every rank just assigned
}

// lookup scans tag's set, stamps the way that now holds the line and
// returns its index in w. The scan ends at the first stale way: live ways
// are a prefix, so the line is absent and that way is free to fill. A full
// set evicts its least recently used way, found by comparing packed words
// directly: the LRU stamp sits in the high bits, and live stamps are
// unique, so the minimum word has the oldest stamp.
func (c *setAssoc) lookup(tag uint64) (int, bool) {
	base := (int(tag-1) & (c.sets - 1)) * c.ways
	clock := c.bump() << wayTagBits
	live := (c.floor + 1) << wayTagBits // smallest live packed word
	w := c.w[base : base+c.ways]
	victim, victimE := 0, uint64(1<<64-1)
	for i, e := range w {
		if e < live {
			w[i] = tag | clock
			return base + i, false
		}
		if e&wayTagMask == tag {
			w[i] = tag | clock
			return base + i, true
		}
		if e < victimE {
			victim, victimE = i, e
		}
	}
	w[victim] = tag | clock
	return base + victim, false
}

// reset empties the cache in O(1): every entry written before this point
// drops below floor, making it both unhittable and the preferred victim, so
// subsequent behaviour is bit-identical to a freshly allocated cache.
func (c *setAssoc) reset() {
	c.floor = c.clock
	c.lastTag = 0
}

// lfb tracks the last N missed lines of one core: a miss to a line that is
// already in flight is served by the line fill buffer.
type lfb struct {
	lines []uint64
	next  int
}

func newLFB(entries int) *lfb { return &lfb{lines: make([]uint64, entries)} }

func (b *lfb) hit(line uint64) bool {
	tag := line + 1
	for _, l := range b.lines {
		if l == tag {
			return true
		}
	}
	return false
}

// reset clears the in-flight lines and rewinds the insertion cursor.
func (b *lfb) reset() {
	for i := range b.lines {
		b.lines[i] = 0
	}
	b.next = 0
}

func (b *lfb) record(line uint64) {
	if len(b.lines) == 0 {
		return
	}
	b.lines[b.next] = line + 1
	b.next = (b.next + 1) % len(b.lines)
}

// stream is one detected sequential access stream.
type stream struct {
	nextLine uint64
	depth    int
	lastUse  uint64
}

// prefetcher is a per-core stream prefetcher.
type prefetcher struct {
	streams []stream
	depth   int
	clock   uint64
}

func newPrefetcher(streams, depth int) *prefetcher {
	return &prefetcher{streams: make([]stream, streams), depth: depth}
}

// reset clears all detected streams and rewinds the recency clock.
func (p *prefetcher) reset() {
	for i := range p.streams {
		p.streams[i] = stream{}
	}
	p.clock = 0
}

// observe advances the stream table with a demand access to line and reports
// whether the line was covered by an established stream.
func (p *prefetcher) observe(line uint64) bool {
	if p.depth <= 0 || len(p.streams) == 0 {
		return false
	}
	p.clock++
	// Match an existing stream expecting this line.
	for i := range p.streams {
		s := &p.streams[i]
		if s.depth > 0 && line == s.nextLine {
			s.nextLine = line + 1
			s.depth++
			s.lastUse = p.clock
			// An established stream covers most, but not all, of its line
			// misses: the prefetcher lags the demand stream, so every 4th
			// line is still exposed as a raw DRAM access. PEBS on real
			// streaming code likewise keeps reporting a share of
			// DRAM-sourced loads.
			return s.depth > p.depth && s.depth%4 != 0
		}
	}
	// Start or recycle a stream slot (LRU).
	victim := 0
	for i := range p.streams {
		if p.streams[i].lastUse < p.streams[victim].lastUse {
			victim = i
		}
	}
	p.streams[victim] = stream{nextLine: line + 1, depth: 1, lastUse: p.clock}
	return false
}

// Hierarchy is the full cache system of one machine.
type Hierarchy struct {
	machine  *topology.Machine
	cfg      Config
	lineBits uint
	// The per-core and per-node components are stored by value: the access
	// hot path then reaches any of them with one indexed load instead of
	// chasing a pointer per level.
	l1, l2 []setAssoc   // per core
	l3     []setAssoc   // per node
	lfbs   []lfb        // per core
	pf     []prefetcher // per core
	// Flat per-CPU topology tables so the access hot path never re-resolves
	// core/node through the machine.
	coreOf []topology.CoreID
	nodeOf []topology.NodeID
}

// hierKey identifies one hierarchy build: the machine pointer (geometry and
// CPU tables) plus the effective configuration. Both are comparable, so the
// key can index the recycle pool directly.
type hierKey struct {
	m   *topology.Machine
	cfg Config
}

// hierPool recycles hierarchies returned through Release, keyed by hierKey.
// The epoch-floor reset makes a flushed hierarchy behave bit-identically to
// a freshly built one, so NewHierarchy can hand back a recycled instance and
// skip both the allocation and the zeroing of its way arrays. Batch sweeps
// build one hierarchy per run, which made that construction cost a hot path.
//
// The pool is bounded on both axes, unlike the sync.Map/sync.Pool it
// replaces: at most poolMaxKeys distinct (machine, geometry) builds are
// retained (keys are evicted least-recently-used, so short-lived machines —
// tests, per-trace topologies — cannot accumulate forever), and each key
// keeps at most poolMaxPerKey hierarchies (enough to feed a full worker
// pool). Within those bounds retention is deterministic: a plain map never
// drops entries on GC the way sync.Pool does, so a batch sweep is never
// surprised by a multi-megabyte hierarchy rebuild mid-run.
var hierPool = hierCache{stacks: make(map[hierKey][]*Hierarchy)}

// poolMaxKeys bounds the distinct (machine, geometry) builds retained.
const poolMaxKeys = 8

// poolMaxPerKey bounds the hierarchies kept per key: one per worker of a
// saturated batch pool, with a small floor.
func poolMaxPerKey() int {
	if n := runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

type hierCache struct {
	mu     sync.Mutex
	stacks map[hierKey][]*Hierarchy
	order  []hierKey // least recently used first
}

// touch moves k to the most-recently-used end of the LRU order, inserting
// it (evicting the oldest key if full) when absent.
func (p *hierCache) touch(k hierKey) {
	for i, o := range p.order {
		if o == k {
			copy(p.order[i:], p.order[i+1:])
			p.order[len(p.order)-1] = k
			return
		}
	}
	if len(p.order) >= poolMaxKeys {
		old := p.order[0]
		copy(p.order, p.order[1:])
		p.order = p.order[:len(p.order)-1]
		delete(p.stacks, old)
	}
	p.order = append(p.order, k)
	if _, ok := p.stacks[k]; !ok {
		p.stacks[k] = nil
	}
}

func (p *hierCache) get(k hierKey) *Hierarchy {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stacks[k]
	if len(s) == 0 {
		return nil
	}
	h := s[len(s)-1]
	s[len(s)-1] = nil
	p.stacks[k] = s[:len(s)-1]
	p.touch(k)
	return h
}

func (p *hierCache) put(k hierKey, h *Hierarchy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.touch(k)
	if s := p.stacks[k]; len(s) < poolMaxPerKey() {
		p.stacks[k] = append(s, h)
	}
}

// NewHierarchy builds the hierarchy for machine m.
func NewHierarchy(m *topology.Machine, cfg Config) (*Hierarchy, error) {
	def := DefaultConfig()
	if cfg.L1Size == 0 {
		cfg.L1Size, cfg.L1Assoc = def.L1Size, def.L1Assoc
	}
	if cfg.L2Size == 0 {
		cfg.L2Size, cfg.L2Assoc = def.L2Size, def.L2Assoc
	}
	if cfg.L3Size == 0 {
		cfg.L3Size, cfg.L3Assoc = def.L3Size, def.L3Assoc
	}
	if cfg.LFBEntries == 0 {
		cfg.LFBEntries = def.LFBEntries
	}
	if cfg.PrefetchDepth == 0 {
		cfg.PrefetchDepth = def.PrefetchDepth
	}
	if cfg.PrefetchStreams == 0 {
		cfg.PrefetchStreams = def.PrefetchStreams
	}

	if h := hierPool.get(hierKey{m, cfg}); h != nil {
		return h, nil
	}

	line := m.LineSize()
	h := &Hierarchy{machine: m, cfg: cfg, coreOf: m.CPUCoreTable(), nodeOf: m.CPUNodeTable()}
	for 1<<h.lineBits < line {
		h.lineBits++
	}
	cores := m.NumCores()
	for c := 0; c < cores; c++ {
		l1, err := newSetAssoc(cfg.L1Size, cfg.L1Assoc, line)
		if err != nil {
			return nil, fmt.Errorf("cache: L1: %w", err)
		}
		l2, err := newSetAssoc(cfg.L2Size, cfg.L2Assoc, line)
		if err != nil {
			return nil, fmt.Errorf("cache: L2: %w", err)
		}
		h.l1 = append(h.l1, *l1)
		h.l2 = append(h.l2, *l2)
		h.lfbs = append(h.lfbs, *newLFB(cfg.LFBEntries))
		h.pf = append(h.pf, *newPrefetcher(cfg.PrefetchStreams, cfg.PrefetchDepth))
	}
	for n := 0; n < m.Nodes(); n++ {
		l3, err := newSetAssoc(cfg.L3Size, cfg.L3Assoc, line)
		if err != nil {
			return nil, fmt.Errorf("cache: L3: %w", err)
		}
		h.l3 = append(h.l3, *l3)
	}
	return h, nil
}

// Release flushes h and returns it to the recycle pool consulted by
// NewHierarchy. The hierarchy must not be used after Release; the next
// NewHierarchy call with the same machine and configuration may hand it to
// another caller.
func (h *Hierarchy) Release() {
	h.Flush()
	hierPool.put(hierKey{h.machine, h.cfg}, h)
}

// Access runs one demand access (read or write, write-allocate) issued by
// cpu through the hierarchy: the core's private levels, then its node's L3,
// then memory.
func (h *Hierarchy) Access(cpu topology.CPUID, addr uint64) Result {
	if cpu < 0 || int(cpu) >= len(h.coreOf) {
		panic(fmt.Sprintf("cache: access from invalid CPU %d", cpu))
	}
	core := h.coreOf[cpu]
	if lv := h.Private(core, addr); lv != L3 {
		return Result{Level: lv}
	}
	if h.Shared(h.nodeOf[cpu], addr) {
		return Result{Level: L3}
	}
	return h.Memory(core, addr)
}

// Private looks addr up in core's L1, then its L2, filling both on a miss.
// It returns the level that served the access, or L3 when the access missed
// both and must go on to Shared. Only the L1 keeps the same-line shortcut:
// one core never reaches its L2 with the same line twice in a row (the
// second access would hit L1), so the L2 and L3 scan every time.
func (h *Hierarchy) Private(core topology.CoreID, addr uint64) Level {
	if h.l1[core].access(addr) {
		return L1
	}
	if _, hit := h.l2[core].lookup(addr>>h.lineBits + 1); hit {
		return L2
	}
	return L3
}

// Shared looks up an access that missed its core's private levels in the
// L3 of node, filling it on a miss, and reports whether it hit.
func (h *Hierarchy) Shared(node topology.NodeID, addr uint64) bool {
	_, hit := h.l3[node].lookup(lineTag(addr, h.lineBits))
	return hit
}

// Memory serves an access by core that missed every cache level. A line
// already in flight is served by its line fill buffer and causes no new
// traffic; otherwise the line comes from DRAM, and if an established
// prefetch stream had it in flight before the demand access arrived, the
// access sees the latency of an LFB but costs the bandwidth of a DRAM fetch.
func (h *Hierarchy) Memory(core topology.CoreID, addr uint64) Result {
	line := addr >> h.lineBits
	if h.lfbs[core].hit(line) {
		return Result{Level: LFB}
	}
	h.lfbs[core].record(line)
	if h.pf[core].observe(line) {
		return Result{Level: LFB, DRAMTraffic: true}
	}
	return Result{Level: MEM, DRAMTraffic: true}
}

// Flush empties every cache, LFB and stream table; used between simulation
// windows so phases do not leak state into each other. Every piece of
// mutable state is invalidated — cache entries (via the O(1) epoch floor,
// observably identical to zeroing the arrays), LFB cursors and prefetch
// streams — so back-to-back windows start from bit-identical replacement
// state, and no per-flush allocation is performed.
func (h *Hierarchy) Flush() {
	for i := range h.l1 {
		h.l1[i].reset()
		h.l2[i].reset()
		h.lfbs[i].reset()
		h.pf[i].reset()
	}
	for i := range h.l3 {
		h.l3[i].reset()
	}
}
