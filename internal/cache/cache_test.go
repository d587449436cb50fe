package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"drbw/internal/topology"
)

func hier(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(topology.Uniform(2, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// tiny returns a hierarchy small enough to exercise evictions quickly.
func tiny(t *testing.T) *Hierarchy {
	return hier(t, Config{
		L1Size: 1 << 10, L1Assoc: 2,
		L2Size: 4 << 10, L2Assoc: 4,
		L3Size: 16 << 10, L3Assoc: 4,
		LFBEntries:    4,
		PrefetchDepth: -1, // disabled
	})
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{L1: "L1", L2: "L2", L3: "L3", LFB: "LFB", MEM: "MEM", Level(9): "Level(9)"} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d) = %q, want %q", int(l), got, want)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := tiny(t)
	r := h.Access(0, 0x100000)
	if r.Level != MEM || !r.DRAMTraffic {
		t.Fatalf("cold access = %+v, want MEM with traffic", r)
	}
	r = h.Access(0, 0x100000)
	if r.Level != L1 {
		t.Fatalf("second access = %+v, want L1", r)
	}
	// Same line, different byte: still an L1 hit.
	r = h.Access(0, 0x100000+32)
	if r.Level != L1 {
		t.Fatalf("same-line access = %+v, want L1", r)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := tiny(t)
	// L1: 1KB, 2-way, 64B lines -> 8 sets. Addresses 8*64 apart share a set.
	setStride := uint64(8 * 64)
	h.Access(0, 0x100000)
	// Evict from L1 by filling the set with two more lines.
	h.Access(0, 0x100000+setStride)
	h.Access(0, 0x100000+2*setStride)
	r := h.Access(0, 0x100000)
	if r.Level != L2 {
		t.Fatalf("after L1 eviction got %v, want L2", r.Level)
	}
}

func TestL3SharedAcrossCoresOnNode(t *testing.T) {
	h := tiny(t)
	m := topology.Uniform(2, 2)
	// CPUs 0 and 1 are different cores on node 0.
	if m.NodeOfCPU(0) != m.NodeOfCPU(1) || m.CoreOfCPU(0) == m.CoreOfCPU(1) {
		t.Fatal("test assumes CPUs 0,1 are distinct cores on one node")
	}
	h.Access(0, 0x200000)
	r := h.Access(1, 0x200000)
	if r.Level != L3 {
		t.Fatalf("cross-core same-node access = %v, want L3 (shared)", r.Level)
	}
}

func TestL3NotSharedAcrossNodes(t *testing.T) {
	h := tiny(t)
	m := topology.Uniform(2, 2)
	var other topology.CPUID = -1
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		if m.NodeOfCPU(topology.CPUID(cpu)) == 1 {
			other = topology.CPUID(cpu)
			break
		}
	}
	h.Access(0, 0x300000)
	r := h.Access(other, 0x300000)
	if r.Level != MEM {
		t.Fatalf("cross-node access = %v, want MEM (private L3s)", r.Level)
	}
}

func TestLFBHitOnInFlightLine(t *testing.T) {
	h := tiny(t)
	h.Access(0, 0x400000) // miss, line now in LFB
	// A second miss to a *different* line in the same burst, then back to a
	// recently missed line: LFB still holds it even though caches now hit.
	// To test the LFB path itself, evict from all caches via Flush of tags is
	// not possible; instead use distinct lines mapping to same sets heavily.
	// Simpler: the LFB check happens only after an L3 miss, so access the
	// same line from a different core on the same node *before* it lands in
	// L3... the model inserts into L3 on first access, so craft it by
	// checking lfb state directly.
	b := newLFB(2)
	if b.hit(5) {
		t.Error("empty LFB reported hit")
	}
	b.record(5)
	if !b.hit(5) {
		t.Error("recorded line not found in LFB")
	}
	b.record(6)
	b.record(7) // evicts 5
	if b.hit(5) {
		t.Error("evicted line still in LFB")
	}
	if !b.hit(6) || !b.hit(7) {
		t.Error("recent lines missing from LFB")
	}
	// Zero-entry LFB is inert.
	z := newLFB(0)
	z.record(1)
	if z.hit(1) {
		t.Error("zero-entry LFB reported hit")
	}
}

func TestPrefetcherCoversSequentialStream(t *testing.T) {
	cfg := Config{
		L1Size: 1 << 10, L1Assoc: 2,
		L2Size: 4 << 10, L2Assoc: 4,
		L3Size: 16 << 10, L3Assoc: 4,
		LFBEntries:    4,
		PrefetchDepth: 4, PrefetchStreams: 2,
	}
	h := hier(t, cfg)
	var prefetched, mem int
	// Long sequential scan over a range far larger than L3.
	for i := 0; i < 4096; i++ {
		r := h.Access(0, uint64(0x1000000+i*64))
		switch {
		case r.Level == LFB && r.DRAMTraffic: // covered by the prefetcher
			prefetched++
		case r.Level == MEM:
			mem++
		}
	}
	if prefetched == 0 {
		t.Fatal("sequential stream never triggered the prefetcher")
	}
	// An established stream covers ~3/4 of line misses; the rest stay
	// exposed as raw DRAM accesses (prefetch lag).
	if mem == 0 {
		t.Error("prefetcher covered everything; expected ~1/4 of line misses exposed")
	}
	lineMisses := prefetched + mem
	ratio := float64(prefetched) / float64(lineMisses)
	if ratio < 0.6 || ratio > 0.9 {
		t.Errorf("prefetch coverage = %.2f of %d line misses, want ~0.75", ratio, lineMisses)
	}
}

func TestPrefetcherIgnoresRandomAccesses(t *testing.T) {
	p := newPrefetcher(4, 4)
	// A scattered pattern never establishes a stream.
	lines := []uint64{100, 7, 9000, 42, 55555, 3, 777, 123456}
	for _, l := range lines {
		if p.observe(l) {
			t.Fatalf("random line %d reported as prefetched", l)
		}
	}
}

func TestPrefetcherTracksMultipleStreams(t *testing.T) {
	p := newPrefetcher(2, 2)
	covered := 0
	for i := uint64(0); i < 16; i++ {
		if p.observe(1000 + i) {
			covered++
		}
		if p.observe(9000 + i) {
			covered++
		}
	}
	if covered < 20 {
		t.Errorf("interleaved streams covered %d accesses, want most of 32", covered)
	}
}

func TestDisabledPrefetcher(t *testing.T) {
	p := newPrefetcher(0, 4)
	for i := uint64(0); i < 32; i++ {
		if p.observe(i) {
			t.Fatal("prefetcher with zero streams covered an access")
		}
	}
	p2 := newPrefetcher(4, 0)
	for i := uint64(0); i < 32; i++ {
		if p2.observe(i) {
			t.Fatal("prefetcher with zero depth covered an access")
		}
	}
}

func TestFlushClearsState(t *testing.T) {
	h := tiny(t)
	h.Access(0, 0x500000)
	h.Flush()
	r := h.Access(0, 0x500000)
	if r.Level != MEM {
		t.Fatalf("post-flush access = %v, want MEM", r.Level)
	}
}

func TestGeometryValidation(t *testing.T) {
	if _, err := newSetAssoc(0, 4, 64); err == nil {
		t.Error("zero-size cache accepted")
	}
	if _, err := newSetAssoc(1024, 0, 64); err == nil {
		t.Error("zero-way cache accepted")
	}
	if _, err := newSetAssoc(1024, 5, 64); err == nil {
		t.Error("non-divisible way count accepted")
	}
	if _, err := newSetAssoc(24*64, 2, 64); err == nil { // 12 sets: not a power of two
		t.Error("non-power-of-two set count accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	h, err := NewHierarchy(topology.Uniform(2, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	got := h.cfg
	if got.L1Size != def.L1Size || got.L3Size != def.L3Size || got.LFBEntries != def.LFBEntries {
		t.Errorf("defaults not applied: %+v", got)
	}
	if h.l1[0].sets <= 0 || h.l3[0].sets <= 0 {
		t.Error("set counts must be positive")
	}
}

func TestAccessFromInvalidCPUPanics(t *testing.T) {
	h := tiny(t)
	defer func() {
		if recover() == nil {
			t.Error("access from invalid CPU did not panic")
		}
	}()
	h.Access(-1, 0x1000)
}

// Property: LRU keeps a working set that fits in one set resident.
func TestLRUWithinSetProperty(t *testing.T) {
	f := func(seed uint8) bool {
		c, err := newSetAssoc(4*64, 4, 64) // 1 set, 4 ways
		if err != nil {
			return false
		}
		// Four distinct lines fill the set; repeated re-access must always hit.
		base := uint64(seed) * 64
		lines := []uint64{base, base + 64, base + 128, base + 192}
		for _, l := range lines {
			c.access(l)
		}
		for round := 0; round < 8; round++ {
			for _, l := range lines {
				if !c.access(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a working set of w lines in one set with w > ways thrashes —
// a cyclic scan never hits under LRU.
func TestLRUThrashProperty(t *testing.T) {
	c, err := newSetAssoc(4*64, 4, 64) // 1 set, 4 ways
	if err != nil {
		t.Fatal(err)
	}
	lines := []uint64{0, 64, 128, 192, 256} // 5 lines, 4 ways
	for _, l := range lines {
		c.access(l)
	}
	for round := 0; round < 4; round++ {
		for _, l := range lines {
			if c.access(l) {
				t.Fatal("cyclic over-capacity scan hit under LRU")
			}
		}
	}
}

// TestFlushRestoresFreshState drives an access mix that exercises every
// stateful component — set LRU clocks, LFB cursor, prefetcher streams — then
// Flushes and requires the replayed mix to classify exactly like it does on a
// brand-new hierarchy. A Flush that forgot to reset the LRU clock or the
// LFB/prefetcher cursors would diverge here.
func TestFlushRestoresFreshState(t *testing.T) {
	cfg := Config{
		L1Size: 1 << 10, L1Assoc: 2,
		L2Size: 4 << 10, L2Assoc: 4,
		L3Size: 16 << 10, L3Assoc: 4,
		LFBEntries:    4,
		PrefetchDepth: 4, PrefetchStreams: 2,
	}
	mix := func(h *Hierarchy) []Result {
		var out []Result
		for i := 0; i < 4000; i++ {
			// Two sequential streams (prefetcher + LFB), one thrashing
			// pointer-chase (LRU eviction pressure), alternating CPUs.
			cpu := topology.CPUID(i % 4)
			var addr uint64
			switch i % 3 {
			case 0:
				addr = 0x100000 + uint64(i/3)*64
			case 1:
				addr = 0x900000 + uint64(i/3)*64
			default:
				addr = 0x500000 + uint64((i*2654435761)%(1<<16))&^63
			}
			out = append(out, h.Access(cpu, addr))
		}
		return out
	}
	dirty := hier(t, cfg)
	mix(dirty) // pollute every structure
	dirty.Flush()
	got := mix(dirty)
	want := mix(hier(t, cfg))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d after Flush = %+v, fresh hierarchy = %+v", i, got[i], want[i])
		}
	}
}

// TestRenormPreservesLRU forces the packed LRU clock of one setAssoc to the
// renormalization threshold mid-stream and requires every subsequent access
// to behave exactly like a twin cache whose clock is nowhere near overflow:
// renorm must be invisible to hit/miss decisions, including across a reset.
func TestRenormPreservesLRU(t *testing.T) {
	fresh := func() *setAssoc {
		c, err := newSetAssoc(4096, 8, 64)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := fresh(), fresh()
	drive := func(stage string, n, salt int) {
		for i := 0; i < n; i++ {
			var addr uint64
			switch i % 3 {
			case 0:
				addr = uint64(i/3) * 64 // sequential (same-line fast path off: line-grain)
			case 1:
				addr = 0x7e0000000000 + uint64(i/3)*64 // high static base
			default:
				addr = uint64((i*2654435761+salt)%(1<<14)) &^ 63 // thrash
			}
			if ga, gb := a.access(addr), b.access(addr); ga != gb {
				t.Fatalf("%s access %d (%#x): renormalized cache %v, twin %v", stage, i, addr, ga, gb)
			}
		}
	}
	drive("warm", 20000, 1)
	// Jump a's clock to just below the overflow threshold. Existing stamps
	// stay far below it, so ordering is intact; the next bump renormalizes.
	a.clock = wayUseMax - 3
	drive("across renorm", 20000, 2)
	if a.clock >= wayUseMax {
		t.Fatalf("clock %d never renormalized (max %d)", a.clock, uint64(wayUseMax))
	}
	// A reset (floor snapshot) after renorm must still invalidate everything.
	a.reset()
	b.reset()
	drive("after reset", 20000, 3)
	// And a renorm with a non-zero floor must keep stale entries stale:
	// reset both (floor snapshots the clock), then push only a's clock to
	// the threshold so its renorm runs while the flushed entries are stale.
	a.reset()
	b.reset()
	a.clock = wayUseMax - 3
	drive("renorm with floor", 20000, 4)
}

// TestSetAssocMatchesLRUModel drives one random line sequence over a few
// sets through two twin caches, one via access (the L1 path, same-line
// shortcut included) and one via lookup (the L2/L3 path). Resets are
// interleaved and renorms forced by pushing the clock to the overflow
// threshold. Every hit or miss must match a plain per-set LRU list, and
// after every access each set's live ways must form a prefix, which the
// scan's early exit relies on.
func TestSetAssocMatchesLRUModel(t *testing.T) {
	const sets, ways = 4, 4
	twin := func() *setAssoc {
		c, err := newSetAssoc(sets*ways*64, ways, 64)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	viaAccess, viaLookup := twin(), twin()
	model := make([][]uint64, sets) // per set: resident lines, most recent first
	touch := func(line uint64) bool {
		s := model[line%sets]
		for i, l := range s {
			if l == line {
				copy(s[1:i+1], s[:i])
				s[0] = line
				return true
			}
		}
		if len(s) < ways {
			s = append(s, 0)
		}
		copy(s[1:], s)
		s[0] = line
		model[line%sets] = s
		return false
	}
	prefix := func(c *setAssoc) bool {
		for base := 0; base < len(c.w); base += c.ways {
			stale := false
			for _, e := range c.w[base : base+c.ways] {
				live := e>>wayTagBits > c.floor
				if live && stale {
					return false
				}
				stale = stale || !live
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(7))
	var resets, renorms int
	for i := 0; i < 200000; i++ {
		switch r := rng.Intn(2000); {
		case r < 2:
			viaAccess.reset()
			viaLookup.reset()
			for s := range model {
				model[s] = model[s][:0]
			}
			resets++
		case r < 4:
			for _, c := range []*setAssoc{viaAccess, viaLookup} {
				c.clock = max(c.clock, wayUseMax-1-uint64(rng.Intn(3)))
			}
			renorms++
		}
		// Three candidate lines per way keep hits and misses both common;
		// repeats exercise the same-line shortcut.
		line := uint64(rng.Intn(3 * sets * ways))
		want := touch(line)
		gotA := viaAccess.access(line*64 + uint64(rng.Intn(64)))
		_, gotL := viaLookup.lookup(line + 1)
		if gotA != want || gotL != want {
			t.Fatalf("access %d (line %d): access %v, lookup %v, LRU model %v", i, line, gotA, gotL, want)
		}
		if !prefix(viaAccess) || !prefix(viaLookup) {
			t.Fatalf("access %d: live ways no longer a prefix of their set", i)
		}
	}
	if resets == 0 || renorms == 0 {
		t.Fatalf("%d resets, %d forced renorms: the sequence must exercise both", resets, renorms)
	}
}

// TestReleaseRecyclesEquivalently drives a hierarchy hard, releases it, and
// requires the next NewHierarchy for the same machine+config — which should
// hand the recycled instance back — to behave exactly like a freshly built
// one.
func TestReleaseRecyclesEquivalently(t *testing.T) {
	m := topology.Uniform(2, 2)
	cfg := Config{
		L1Size: 1 << 10, L1Assoc: 2,
		L2Size: 4 << 10, L2Assoc: 4,
		L3Size: 16 << 10, L3Assoc: 4,
		LFBEntries:    4,
		PrefetchDepth: 4, PrefetchStreams: 2,
	}
	mix := func(h *Hierarchy) []Result {
		var out []Result
		for i := 0; i < 4000; i++ {
			cpu := topology.CPUID(i % 4)
			var addr uint64
			switch i % 3 {
			case 0:
				addr = 0x100000 + uint64(i/3)*64
			case 1:
				addr = 0x900000 + uint64(i/3)*64
			default:
				addr = 0x500000 + uint64((i*2654435761)%(1<<16))&^63
			}
			out = append(out, h.Access(cpu, addr))
		}
		return out
	}
	h1, err := NewHierarchy(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix(h1) // pollute LRU stamps, LFBs, prefetch streams
	h1.Release()

	h2, err := NewHierarchy(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		// The pool may drop entries (GC); the equivalence check below still
		// holds, it just no longer exercises the recycle path.
		t.Log("pool did not return the released hierarchy; testing a fresh one")
	}
	fresh, err := NewHierarchy(topology.Uniform(2, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := mix(h2), mix(fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d on recycled hierarchy = %+v, fresh = %+v", i, got[i], want[i])
		}
	}
}

// poolStats reports the recycle pool's occupancy: distinct keys and total
// retained hierarchies.
func poolStats() (keys, hierarchies int) {
	hierPool.mu.Lock()
	defer hierPool.mu.Unlock()
	for _, s := range hierPool.stacks {
		hierarchies += len(s)
	}
	return len(hierPool.stacks), hierarchies
}

// TestHierPoolBounded releases hierarchies for more machine+config shapes
// than the pool retains and checks that both bounds hold: at most
// poolMaxKeys distinct shapes survive (LRU eviction), and no shape stacks
// more than poolMaxPerKey instances. Without these bounds a long batch run
// over heterogeneous configs pins an unbounded set of multi-MB hierarchies.
func TestHierPoolBounded(t *testing.T) {
	m := topology.Uniform(2, 2)
	mkCfg := func(i int) Config {
		return Config{
			L1Size: 1 << 10, L1Assoc: 2,
			L2Size: 4 << 10, L2Assoc: 4,
			L3Size: 16 << 10, L3Assoc: 4,
			LFBEntries: 4 + i, // distinct config => distinct pool key
		}
	}
	shapes := 2 * poolMaxKeys
	for i := 0; i < shapes; i++ {
		// Over-release one shape to probe the per-key depth cap too.
		n := 1
		if i == shapes-1 {
			n = 3 * poolMaxPerKey()
		}
		for j := 0; j < n; j++ {
			h, err := NewHierarchy(m, mkCfg(i))
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
			// Take it back out and re-release so the over-release loop
			// actually accumulates distinct instances in the stack.
			if j < n-1 {
				h2, err := NewHierarchy(m, mkCfg(i))
				if err != nil {
					t.Fatal(err)
				}
				defer h2.Release()
			}
		}
	}
	keys, hiers := poolStats()
	if keys > poolMaxKeys {
		t.Errorf("pool retains %d keys, cap is %d", keys, poolMaxKeys)
	}
	if max := poolMaxKeys * poolMaxPerKey(); hiers > max {
		t.Errorf("pool retains %d hierarchies, cap is %d", hiers, max)
	}
	// The most recently released shape must still be cached (LRU keeps it).
	h, err := NewHierarchy(m, mkCfg(shapes-1))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if keysAfter, _ := poolStats(); keysAfter > keys {
		t.Errorf("NewHierarchy for a cached shape grew the pool: %d -> %d keys", keys, keysAfter)
	}
}
