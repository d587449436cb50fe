// Parallel window execution.
//
// The serial window (windowSerial) interleaves every active thread
// round-robin through one goroutine. This file runs the same window on
// multiple cores while staying bit-identical to that interleave, which is
// possible because of how the simulated state partitions:
//
//   - L1/L2/LFB/prefetcher state is per core, the L3 per node, and a core
//     belongs to exactly one node — so threads bound to different nodes
//     share no cache state at all. Restricted to one node, the serial
//     interleave order equals the node-group's own round-robin order, so a
//     group replaying its threads in act order reproduces the exact access
//     sequence every one of its caches saw.
//   - Streams, reservoirs and the per-channel counters are per thread.
//   - The only cross-node coupling is first-touch page resolution in
//     memsim: the first MEM/LFB access to an untouched page claims it for
//     the accessor's node, and later accesses from any node observe that
//     choice.
//
// So the window shards into per-node thread groups that run concurrently
// against a read-only memsim.Reader. A group that would first-touch a page
// instead records a claim carrying the access's global interleave position
// (step*len(act) + thread position) and provisionally homes the page on its
// own node. After the groups join, claims are arbitrated: the globally
// earliest claim is exactly the access that first-touches the page in the
// serial interleave, so it wins and is committed through Touch. Losing
// groups are patched: every one of their accesses to a lost page happened
// after their own first claim, which happened after the winner's — so in
// the serial order all of them would have seen the winner's home. The
// patch re-homes the affected per-channel integer counts and reservoir
// records; nothing else in the window depends on homes, and no floating
// point is accumulated before the (serial) profile-building tail, so the
// result is bit-identical to windowSerial at any worker count.
package engine

import (
	"runtime"
	"sort"
	"sync"

	"drbw/internal/cache"
	"drbw/internal/topology"
)

// windowGroups partitions the active threads of one window by bound node,
// preserving act order inside each group. It returns nil when the serial
// path should run instead: GOMAXPROCS is 1, or all threads sit on one node
// (a single group would just replay windowSerial with extra setup).
func (e *Engine) windowGroups(act []winThread) [][]int {
	if runtime.GOMAXPROCS(0) <= 1 || len(act) < 2 {
		return nil
	}
	byNode := make([][]int, e.nn)
	for i := range act {
		n := int(act[i].node)
		byNode[n] = append(byNode[n], i)
	}
	groups := byNode[:0]
	for _, g := range byNode {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	if len(groups) < 2 {
		return nil
	}
	return groups
}

// ftRisk accumulates the post-warmup accounting one thread charged against
// a provisionally claimed page, so a lost arbitration can re-home exactly
// those counts.
type ftRisk struct {
	mem, lfb, traf int32
}

// ftClaim is one group's provisional first touch of a page.
type ftClaim struct {
	// order is the global interleave position of the group's first access
	// to the page: step*len(act) + position in act. The minimum across
	// groups identifies the access that first-touches the page serially.
	order      uint64
	start, end uint64 // page bounds
	risk       []ftRisk
}

// winGroup is the per-node execution state of one parallel window.
type winGroup struct {
	node     topology.NodeID
	threads  []int // indices into act, in act order
	claims   map[uint64]*ftClaim
	err      error
	panicked any
}

// claim returns the group's claim for the page starting at start, creating
// it with the given order on first access.
func (g *winGroup) claim(start, end, order uint64) *ftClaim {
	if g.claims == nil {
		g.claims = make(map[uint64]*ftClaim, 8)
	}
	c := g.claims[start]
	if c == nil {
		c = &ftClaim{order: order, start: start, end: end, risk: make([]ftRisk, len(g.threads))}
		g.claims[start] = c
	}
	return c
}

// windowParallel executes one window across per-node thread groups and
// merges the first-touch claims. It produces exactly the state windowSerial
// would leave in act and in the address space.
func (e *Engine) windowParallel(act []winThread, groups [][]int) error {
	gs := make([]winGroup, len(groups))
	for gi, th := range groups {
		gs[gi] = winGroup{node: act[th[0]].node, threads: th}
	}
	workers := min(runtime.GOMAXPROCS(0), len(gs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gi := w; gi < len(gs); gi += workers {
				gs[gi].run(e, act)
			}
		}(w)
	}
	wg.Wait()
	for gi := range gs {
		if gs[gi].panicked != nil {
			panic(gs[gi].panicked)
		}
	}
	for gi := range gs {
		if gs[gi].err != nil {
			return gs[gi].err
		}
	}
	e.mergeFirstTouch(act, gs)
	return nil
}

// run drives one group's threads through the whole window. It mirrors
// windowSerial line for line, with HomeFor replaced by the read-only
// Resolve plus group-local claims.
func (g *winGroup) run(e *Engine, act []winThread) {
	defer func() {
		if p := recover(); p != nil {
			g.panicked = p
		}
	}()
	warmup := e.cfg.Warmup
	total := warmup + e.cfg.Window
	hier, seed := e.hier, e.cfg.Seed
	rsz := e.cfg.ReservoirSize
	nn := e.nn
	rd := e.space.NewReader()
	stride := uint64(len(act))
	// Per-thread last-claim memo: sequential streams hit the same page many
	// times in a row, so the map lookup is nearly always redundant.
	lastStart := make([]uint64, len(g.threads))
	lastClaim := make([]*ftClaim, len(g.threads))

	for step := 0; step < warmup; step++ {
		for li, ti := range g.threads {
			t := &act[ti]
			if t.bpos == t.blen {
				if err := t.refill(seed, step); err != nil {
					g.err = err
					return
				}
			}
			a := &t.buf[t.bpos]
			t.bpos++
			r := hier.AccessOn(t.core, t.node, a.Addr)
			if r.Level == cache.MEM || r.Level == cache.LFB {
				h, start, end := rd.Resolve(a.Addr, t.node)
				if h == topology.InvalidNode && end != 0 {
					// Would-be first touch; no accounting during warmup, but
					// the claim order must be registered.
					if lastClaim[li] == nil || start != lastStart[li] {
						lastClaim[li] = g.claim(start, end, uint64(step)*stride+uint64(ti))
						lastStart[li] = start
					}
				}
			}
		}
	}
	for step := warmup; step < total; step++ {
		for li, ti := range g.threads {
			t := &act[ti]
			if t.bpos == t.blen {
				if err := t.refill(seed, step); err != nil {
					g.err = err
					return
				}
			}
			a := &t.buf[t.bpos]
			t.bpos++
			r := hier.AccessOn(t.core, t.node, a.Addr)
			home := t.node
			if r.Level == cache.MEM || r.Level == cache.LFB {
				h, start, end := rd.Resolve(a.Addr, t.node)
				if h != topology.InvalidNode {
					home = h
				} else if end != 0 {
					// Untouched first-touch page: provisionally home it here
					// (home stays t.node) and track the at-risk counts.
					c := lastClaim[li]
					if c == nil || start != lastStart[li] {
						c = g.claim(start, end, uint64(step)*stride+uint64(ti))
						lastClaim[li] = c
						lastStart[li] = start
					}
					rc := &c.risk[li]
					switch r.Level {
					case cache.MEM:
						rc.mem++
					case cache.LFB:
						rc.lfb++
					}
					if r.DRAMTraffic {
						rc.traf++
					}
				}
			}
			t.total++
			t.level[r.Level]++
			ci := int(t.node)*nn + int(home)
			switch r.Level {
			case cache.MEM:
				t.mem[ci]++
			case cache.LFB:
				t.lfb[ci]++
			}
			if r.DRAMTraffic {
				t.traf[ci]++
				if t.node != home {
					t.traf[int(home)*nn+int(home)]++
				}
			}
			t.seen++
			if len(t.res) < rsz {
				t.res = append(t.res, packRecord(a.Addr, r.Level, home, a.Write))
			} else {
				x := xorshift64(t.rstate)
				t.rstate = x
				if j := int(x % uint64(t.seen)); j < rsz {
					t.res[j] = packRecord(a.Addr, r.Level, home, a.Write)
				}
			}
		}
	}
}

// ftWinner is the arbitration result for one claimed page.
type ftWinner struct {
	order      uint64
	node       topology.NodeID
	start, end uint64
}

// mergeFirstTouch arbitrates the groups' first-touch claims, commits the
// winners to the address space, and patches the losing groups' accounting
// and reservoirs to the homes the serial interleave would have produced.
func (e *Engine) mergeFirstTouch(act []winThread, gs []winGroup) {
	var wins map[uint64]ftWinner
	for gi := range gs {
		g := &gs[gi]
		for pg, c := range g.claims {
			if wins == nil {
				wins = make(map[uint64]ftWinner, len(g.claims))
			}
			if w, ok := wins[pg]; !ok || c.order < w.order {
				wins[pg] = ftWinner{order: c.order, node: g.node, start: c.start, end: c.end}
			}
		}
	}
	if wins == nil {
		return
	}
	// Commit in ascending page order so the address space's own memo and
	// generation counter evolve deterministically.
	pages := make([]uint64, 0, len(wins))
	for pg := range wins {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pg := range pages {
		e.space.Touch(pg, wins[pg].node)
	}

	nn := e.nn
	for gi := range gs {
		g := &gs[gi]
		// Every group access to a lost page happened after the group's own
		// claim, which the winner's first touch precedes globally — so the
		// serial interleave would have served all of them from the winner's
		// node. Move the counts: local (src,src) becomes remote (src,win)
		// plus the winner's controller leg for DRAM traffic.
		var lost []ftWinner
		src := int(g.node)
		oldCi := src*nn + src
		for pg, c := range g.claims {
			w := wins[pg]
			if w.node == g.node {
				continue // this group's claim won
			}
			lost = append(lost, w)
			newCi := src*nn + int(w.node)
			dstLoc := int(w.node)*nn + int(w.node)
			for li := range c.risk {
				rc := &c.risk[li]
				if rc.mem == 0 && rc.lfb == 0 && rc.traf == 0 {
					continue
				}
				t := &act[g.threads[li]]
				t.mem[oldCi] -= int(rc.mem)
				t.mem[newCi] += int(rc.mem)
				t.lfb[oldCi] -= int(rc.lfb)
				t.lfb[newCi] += int(rc.lfb)
				t.traf[oldCi] -= int(rc.traf)
				t.traf[newCi] += int(rc.traf)
				t.traf[dstLoc] += int(rc.traf)
			}
		}
		if len(lost) == 0 {
			continue
		}
		// Re-home the group's MEM/LFB reservoir records falling in a lost
		// page. Only those levels carry overlay homes — cache-served records
		// were packed with the thread's own node, same as serial.
		sort.Slice(lost, func(i, j int) bool { return lost[i].start < lost[j].start })
		for _, ti := range g.threads {
			t := &act[ti]
			for ri, rec := range t.res {
				lv := rec.level()
				if lv != cache.MEM && lv != cache.LFB {
					continue
				}
				addr := rec.addr()
				k := sort.Search(len(lost), func(i int) bool { return lost[i].end > addr })
				if k < len(lost) && addr >= lost[k].start {
					t.res[ri] = packRecord(addr, lv, lost[k].node, rec.write())
				}
			}
		}
	}
}
