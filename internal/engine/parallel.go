// The window loop.
//
// A window is a sequence of steps; in each step every active thread issues
// one access, in act (thread) order. That round-robin interleave is the
// window's definition, and runRef in reference_test.go replays it one
// access at a time. This file computes the same result faster, on as many
// cores as GOMAXPROCS allows, because of how the simulated state
// partitions:
//
//   - L1/L2/LFB/prefetcher state is per core, the L3 per node, and a core
//     belongs to exactly one node — so threads bound to different nodes
//     share no cache state at all. Restricted to one node, the interleave
//     order equals the node group's own round-robin order.
//   - Streams, reservoirs and the per-channel counters are per thread.
//   - The only cross-node coupling is first-touch page resolution in
//     memsim: the first MEM/LFB access to an untouched page claims it for
//     the accessor's node, and later accesses from any node observe that
//     choice.
//
// So the window shards into per-node thread groups that run against a
// read-only memsim.Reader, concurrently when GOMAXPROCS allows and one
// after another otherwise. Each group advances in chunks of streamBatch
// steps, and each chunk in three stages, ordered so that every piece of
// state sees its accesses in interleave order:
//
//  1. Private levels, core-major. Each core runs its L1/L2 lookups for the
//     whole chunk before the next core starts, so its arrays stay in the
//     host's cache. SMT siblings share a core, so they interleave step by
//     step in act order, exactly as the round-robin does.
//  2. Shared levels, in (step, thread) order: the node's L3 for the private
//     misses, then the core's LFB and prefetcher for the L3 misses. The
//     private levels never depend on these, so running them after stage 1
//     changes nothing.
//  3. Accounting, thread-major: homes, counters and reservoir are per
//     thread, and need only that thread's accesses in order.
//
// A group that would first-touch a page instead records a claim carrying
// the minimum global interleave position (step*len(act) + thread position)
// of its accesses to the page, and provisionally homes the page on its own
// node. After the groups join, claims are arbitrated: the globally earliest
// claim is exactly the access that first-touches the page in the
// interleave, so it wins and is committed through Touch. Losing groups are
// patched: every one of their accesses to a lost page happened after their
// own first claim, which happened after the winner's — so in the interleave
// all of them would have seen the winner's home. The patch re-homes the
// affected per-channel integer counts and reservoir records; nothing else
// in the window depends on homes, and no floating point is accumulated
// before the (serial) profile-building tail, so the result is bit-identical
// to the interleave at any GOMAXPROCS.
package engine

import (
	"runtime"
	"sort"
	"sync"

	"drbw/internal/cache"
	"drbw/internal/memsim"
	"drbw/internal/topology"
)

// ftRisk accumulates the post-warmup accounting one thread charged against
// a provisionally claimed page, so a lost arbitration can re-home exactly
// those counts.
type ftRisk struct {
	mem, lfb, traf int32
}

// ftClaim is one group's provisional first touch of a page.
type ftClaim struct {
	// order is the global interleave position of the group's earliest
	// access to the page: step*len(act) + position in act. The minimum
	// across groups identifies the access that first-touches the page.
	order      uint64
	start, end uint64 // page bounds
	risk       []ftRisk
}

// winGroup is the execution state of one node's threads in a window.
type winGroup struct {
	node    topology.NodeID
	threads []int // indices into act, in act order
	// cores holds the same indices grouped by core: cores in order of first
	// appearance, SMT siblings in act order.
	cores    [][]int
	claims   map[uint64]*ftClaim
	err      error
	panicked any
}

// windowGroups partitions the active threads of one window by bound node,
// in node order, preserving act order inside each group.
func (e *Engine) windowGroups(act []winThread) []winGroup {
	byNode := make([]winGroup, e.nn)
	for ti := range act {
		t := &act[ti]
		g := &byNode[t.node]
		g.node = t.node
		g.threads = append(g.threads, ti)
		ci := 0
		for ci < len(g.cores) && act[g.cores[ci][0]].core != t.core {
			ci++
		}
		if ci == len(g.cores) {
			g.cores = append(g.cores, nil)
		}
		g.cores[ci] = append(g.cores[ci], ti)
	}
	gs := byNode[:0]
	for _, g := range byNode {
		if len(g.threads) > 0 {
			gs = append(gs, g)
		}
	}
	return gs
}

// claim returns the group's claim for the page starting at start, creating
// it on first access, and lowers its order to order if that is earlier:
// stage 3 visits the group's threads one after another, so the claim's
// first visitor need not hold the group's earliest access.
func (g *winGroup) claim(start, end, order uint64) *ftClaim {
	if g.claims == nil {
		g.claims = make(map[uint64]*ftClaim, 8)
	}
	c := g.claims[start]
	if c == nil {
		c = &ftClaim{order: order, start: start, end: end, risk: make([]ftRisk, len(g.threads))}
		g.claims[start] = c
	} else if order < c.order {
		c.order = order
	}
	return c
}

// runWindow executes one window across the per-node thread groups and
// merges their first-touch claims, leaving in act and in the address space
// exactly the state the round-robin interleave would.
func (e *Engine) runWindow(act []winThread) error {
	gs := e.windowGroups(act)
	if err := fanOut(gs, func(g *winGroup) { g.run(e, act) }); err != nil {
		return err
	}
	e.mergeFirstTouch(act, gs)
	return nil
}

// fanOut runs fn on every group, concurrently when GOMAXPROCS allows, and
// returns the first group's error in node order. A panic in a group is
// re-raised here, on the caller's goroutine.
func fanOut(gs []winGroup, fn func(*winGroup)) error {
	workers := min(runtime.GOMAXPROCS(0), len(gs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gi := w; gi < len(gs); gi += workers {
				func(g *winGroup) {
					defer func() {
						if p := recover(); p != nil {
							g.panicked = p
						}
					}()
					fn(g)
				}(&gs[gi])
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
	return nil
}

// run drives one group's threads through the whole window, a chunk of at
// most streamBatch steps at a time. No chunk straddles the end of warmup.
func (g *winGroup) run(e *Engine, act []winThread) {
	warmup := e.cfg.Warmup
	total := warmup + e.cfg.Window
	hier, seed := e.hier, e.cfg.Seed
	rd := e.space.NewReader()
	for step := 0; step < total; {
		end := min(step+streamBatch, total)
		if step < warmup {
			end = min(end, warmup)
		}
		n := end - step
		for _, ti := range g.threads {
			if err := act[ti].next(n, seed, step); err != nil {
				g.err = err
				return
			}
		}
		for _, sib := range g.cores {
			core := act[sib[0]].core
			for k := 0; k < n; k++ {
				for _, ti := range sib {
					t := &act[ti]
					t.out[k] = uint8(hier.Private(core, t.chunk[k].Addr))
				}
			}
		}
		for k := 0; k < n; k++ {
			for _, ti := range g.threads {
				t := &act[ti]
				if cache.Level(t.out[k]) != cache.L3 || hier.Shared(g.node, t.chunk[k].Addr) {
					continue
				}
				r := hier.Memory(t.core, t.chunk[k].Addr)
				o := uint8(r.Level)
				if r.DRAMTraffic {
					o |= outTraffic
				}
				t.out[k] = o
			}
		}
		for li, ti := range g.threads {
			g.account(e, rd, act, li, ti, step, step < warmup)
		}
		step = end
	}
}

// account charges one thread's chunk, which starts at step: it charges
// every MEM/LFB access (recording it when the window records), and after
// warmup updates the thread's level counts and reservoir.
func (g *winGroup) account(e *Engine, rd *memsim.Reader, act []winThread, li, ti, step int, warm bool) {
	t := &act[ti]
	rsz := e.cfg.ReservoirSize
	stride := uint64(len(act))
	for k := range t.chunk {
		a := &t.chunk[k]
		lv := cache.Level(t.out[k] &^ outTraffic)
		home := t.node
		if lv == cache.MEM || lv == cache.LFB {
			traffic := t.out[k]&outTraffic != 0
			if t.recording {
				t.rec.add(packMemAccess(a.Addr>>e.lineBits, step+k, lv, traffic))
			}
			home = g.charge(e, rd, t, li, uint64(step+k)*stride+uint64(ti), a.Addr, lv, traffic, warm)
		}
		if warm {
			continue
		}
		t.total++
		t.level[lv]++
		// Uniform reservoir of concrete records; the record is only
		// materialized on the paths that store it.
		t.seen++
		if len(t.res) < rsz {
			t.res = append(t.res, packRecord(a.Addr, lv, home, a.Write))
		} else {
			x := xorshift64(t.rstate)
			t.rstate = x
			if j := int(x % uint64(t.seen)); j < rsz {
				t.res[j] = packRecord(a.Addr, lv, home, a.Write)
			}
		}
	}
}

// charge resolves the home of one MEM/LFB access of thread t (position li
// in the group) at global interleave position order, registering a
// first-touch claim for an untouched page, and after warmup counts it on
// the thread's per-channel counters. It returns the home.
func (g *winGroup) charge(e *Engine, rd *memsim.Reader, t *winThread, li int, order, addr uint64, lv cache.Level, traffic, warm bool) topology.NodeID {
	home := t.node
	h, start, end := rd.Resolve(addr, t.node)
	if h != topology.InvalidNode {
		home = h
	} else if end != 0 {
		// Untouched first-touch page: provisionally home it here (home
		// stays t.node) and track the at-risk counts.
		c := t.ft
		if c == nil || start != t.ftStart {
			c = g.claim(start, end, order)
			t.ft, t.ftStart = c, start
		}
		if !warm {
			rc := &c.risk[li]
			if lv == cache.MEM {
				rc.mem++
			} else {
				rc.lfb++
			}
			if traffic {
				rc.traf++
			}
		}
	}
	if warm {
		return home
	}
	nn := e.nn
	ci := int(t.node)*nn + int(home)
	if lv == cache.MEM {
		t.mem[ci]++
	} else {
		t.lfb[ci]++
	}
	if traffic {
		t.traf[ci]++
		if t.node != home {
			t.traf[int(home)*nn+int(home)]++
		}
	}
	return home
}

// ftWinner is the arbitration result for one claimed page.
type ftWinner struct {
	order      uint64
	node       topology.NodeID
	start, end uint64
}

// mergeFirstTouch arbitrates the groups' first-touch claims, commits the
// winners to the address space, and patches the losing groups' accounting
// and reservoirs to the homes the interleave would have produced.
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
		// interleave would have served all of them from the winner's node.
		// Move the counts: local (src,src) becomes remote (src,win) plus the
		// winner's controller leg for DRAM traffic.
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
		// were packed with the thread's own node, as in the interleave.
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
