// Window record and replay.
//
// Page placement never changes which level serves an access: streams,
// binding, cache geometry, Window/Warmup/ReservoirSize and Seed fix every
// access's level and DRAM-traffic bit, and the reservoir's slot choice
// depends only on its own counter and xorshift state. Only stage 3 of the
// window (winGroup.account) and mergeFirstTouch read placement. So a run
// of a program under one placement can record that placement-independent
// part of each window, and a run of the same program under another
// placement can replay it: skip the streams and stages 1–2, run the
// accounting over the recorded DRAM- and LFB-served accesses, and merge
// first touches exactly as a simulated window does. The replayed Result is
// bit-identical to simulating; the placement search and optimize.Measure
// use this to simulate a case's caches once.
package engine

import (
	"slices"

	"drbw/internal/cache"
	"drbw/internal/memsim"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// recording is the placement-independent part of a run's windows.
type recording struct {
	key  recordKey
	bind Binding
	// phases[pi] holds phase pi's active threads in act order. A recording
	// run that fails or stops early covers a prefix of the program's phases.
	phases [][]threadRecord
}

// recordKey is the identity of a recording: everything besides the phases
// themselves that stages 1–2 and the reservoir depend on.
type recordKey struct {
	machine                   *topology.Machine
	cache                     cache.Config
	window, warmup, reservoir int
	seed                      uint64
}

// threadRecord is one thread's window in a recording.
type threadRecord struct {
	idx   int    // thread index in the phase
	level [5]int // post-warmup accesses served per level
	// res is the thread's final reservoir. Its homes belong to the recording
	// run's placement; a replay re-resolves the DRAM- and LFB-served ones.
	res []record
	// mem lists every access served by DRAM or an LFB, warmup included, in
	// step order: the accesses whose homes the accounting resolves.
	mem memLog
}

// memLog is a thread's recorded accesses, in blocks of memLogBlock. The
// log never copies: a growing slice would allocate several times its final
// size on the way there.
type memLog [][]memAccess

const memLogBlock = 1024

func (l *memLog) add(m memAccess) {
	n := len(*l)
	if n == 0 || len((*l)[n-1]) == memLogBlock {
		*l = append(*l, make([]memAccess, 0, memLogBlock))
		n++
	}
	(*l)[n-1] = append((*l)[n-1], m)
}

// memAccess is one recorded DRAM- or LFB-served access, packed into a word:
// bit 0 set for LFB (clear for DRAM), bit 1 the DRAM-traffic flag, bits
// 2..22 the window step and bits 23..63 the line number, which the cache
// layer already bounds to 41 bits. Lines never straddle pages (a page is a
// whole number of lines), so the line's first byte resolves to the same
// home as the access.
type memAccess uint64

const (
	maStepShift = 2
	maStepBits  = 21
	maLineShift = maStepShift + maStepBits
)

func packMemAccess(line uint64, step int, lv cache.Level, traffic bool) memAccess {
	m := memAccess(line)<<maLineShift | memAccess(step)<<maStepShift
	if lv == cache.LFB {
		m |= 1
	}
	if traffic {
		m |= 2
	}
	return m
}

func (m memAccess) line() uint64  { return uint64(m >> maLineShift) }
func (m memAccess) step() int     { return int(m >> maStepShift & (1<<maStepBits - 1)) }
func (m memAccess) traffic() bool { return m&2 != 0 }
func (m memAccess) level() cache.Level {
	if m&1 != 0 {
		return cache.LFB
	}
	return cache.MEM
}

func (e *Engine) recordKey() recordKey {
	return recordKey{
		machine: e.machine, cache: e.hcfg,
		window: e.cfg.Window, warmup: e.cfg.Warmup, reservoir: e.cfg.ReservoirSize,
		seed: e.cfg.Seed,
	}
}

// Record is Run that also records each phase's window on the Result, for
// Replay by later runs of the same program under another page placement.
// The recording covers the phases the run simulated: a CycleBudget abort
// leaves the later ones out, and a replay simulates those. A window too
// long for the packed step field is not recorded, and the Result then
// reports !Recorded().
func (e *Engine) Record(phases []trace.Phase, bind Binding) (*Result, error) {
	var rec *recording
	if e.cfg.Warmup+e.cfg.Window <= 1<<maStepBits {
		rec = &recording{key: e.recordKey(), bind: slices.Clone(bind)}
	}
	res, err := e.run(phases, bind, nil, rec)
	if err != nil {
		return nil, err
	}
	res.rec = rec
	return res, nil
}

// Replay runs phases like Run, replaying each phase's window from base's
// recording instead of simulating the caches. It trusts that phases are
// the recorded program's own — built by the same builder and
// configuration, so with the same streams — and that only page placement
// differs; the result is then bit-identical to Run's. A recording of
// another machine, cache geometry, binding, Seed, Window, Warmup or
// ReservoirSize, or a phase whose thread set differs, is not replayed:
// those windows are simulated. A base without a recording simulates
// everything.
func (e *Engine) Replay(base *Result, phases []trace.Phase, bind Binding) (*Result, error) {
	src := base.rec
	if src != nil && (src.key != e.recordKey() || !slices.Equal(src.bind, bind)) {
		src = nil
	}
	return e.run(phases, bind, src, nil)
}

// Recorded reports whether the result carries a window recording (see
// Engine.Record). Recordings are not serialized: a decoded Result has none,
// and neither has a nil one.
func (r *Result) Recorded() bool { return r != nil && r.rec != nil }

// phase returns phase pi's recorded threads when they match ph's active
// threads, nil otherwise.
func (r *recording) phase(pi int, ph trace.Phase) []threadRecord {
	if r == nil || pi >= len(r.phases) {
		return nil
	}
	trs := r.phases[pi]
	n := 0
	for i, spec := range ph.Threads {
		if spec.Stream == nil || spec.Ops <= 0 {
			continue
		}
		if n == len(trs) || trs[n].idx != i {
			return nil
		}
		n++
	}
	if n != len(trs) {
		return nil
	}
	return trs
}

// save appends the window just simulated in act to the recording.
func (r *recording) save(act []winThread) {
	trs := make([]threadRecord, len(act))
	for ti := range act {
		t := &act[ti]
		trs[ti] = threadRecord{idx: t.idx, level: t.level, res: t.res, mem: t.rec}
	}
	r.phases = append(r.phases, trs)
}

// replayWindow is runWindow over recorded threads: each group charges its
// threads' recorded accesses, then first touches merge as in a simulated
// window. The reservoirs are rebuilt only when sampling reads them.
func (e *Engine) replayWindow(act []winThread, trs []threadRecord) error {
	gs := e.windowGroups(act)
	withRes := e.cfg.Collector != nil
	err := fanOut(gs, func(g *winGroup) { g.replay(e, act, trs, withRes) })
	if err != nil {
		return err
	}
	e.mergeFirstTouch(act, gs)
	return nil
}

// replay charges the group's recorded accesses, thread by thread: every
// piece of state account touches is per thread or keeps the earliest claim
// order, so the thread-major order reproduces the interleave's result.
func (g *winGroup) replay(e *Engine, act []winThread, trs []threadRecord, withRes bool) {
	rd := e.space.NewReader()
	stride := uint64(len(act))
	for li, ti := range g.threads {
		t := &act[ti]
		tr := &trs[ti]
		for _, blk := range tr.mem {
			for _, m := range blk {
				step := m.step()
				g.charge(e, rd, t, li, uint64(step)*stride+uint64(ti), m.line()<<e.lineBits, m.level(), m.traffic(), step < e.cfg.Warmup)
			}
		}
		t.level = tr.level
		for _, n := range tr.level {
			t.total += n
		}
		if withRes {
			t.res = rehome(tr.res, rd, t.node)
		}
	}
}

// rehome copies a recorded reservoir with the homes the replaying run's
// placement gives its DRAM- and LFB-served records at window time: the
// node Resolve reports, or the thread's own node for an untouched
// first-touch page (provisionally claimed, patched by mergeFirstTouch) or
// an unmapped address.
func rehome(res []record, rd *memsim.Reader, node topology.NodeID) []record {
	out := make([]record, len(res))
	for i, rec := range res {
		lv := rec.level()
		if lv == cache.MEM || lv == cache.LFB {
			home := node
			if h, _, _ := rd.Resolve(rec.addr(), node); h != topology.InvalidNode {
				home = h
			}
			rec = packRecord(rec.addr(), lv, home, rec.write())
		}
		out[i] = rec
	}
	return out
}
