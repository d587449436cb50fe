package drbw

// One analysis path: plan, then one fused pass.
//
// Every analysis entry point — a recording in memory or on disk, a time
// window of one, a batch, a set of shards — first turns its inputs into a
// plan: a job list, each job one independently decodable portion of a
// samples file (or, in memory, the whole recording), plus the
// bounds the timeline needs before it can bucket anything: the kept sample
// count, their time range, and the collector weight. One fused pass then
// streams every job exactly once, accumulating features, the pre-bounded
// timeline, and dense CF attribution for every channel together; the
// classifier runs on the merged features and the dense counts are
// restricted to the channels it flags.
//
// The bounds come from one of two places. A checksummed (DRBWIDX2)
// indexed recording analyzed whole states them in its footer, so no sample
// decodes before the fused pass. Everything else — CSV, compressed,
// unindexed v3, DRBWIDX1, and any time-windowed query, whose kept range no
// block-level bound can state exactly — takes a streaming pre-scan over
// the same jobs that counts the kept samples and tracks their range.
//
// Either way the fused pass checks what it decoded against the plan: the
// same count, the same range, and as many samples outside it (NaN times,
// which no range holds). A footer that disagrees fails as "index disagrees
// with recording"; a recording that differs from its pre-scan fails as
// "recording changed during analysis". Footer plans additionally verify
// every decoded block against its DRBWIDX2 checksum, which covers what the
// footer's own claims cannot: the payload bytes.

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"drbw/internal/alloc"
	"drbw/internal/core"
	"drbw/internal/diagnose"
	"drbw/internal/features"
	"drbw/internal/obs"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
)

// testHookPlanned, when non-nil, runs after planning and before the fused
// pass, told whether the plan's bounds came from the index footer. Tests
// use it to see which inputs skip the pre-scan and to mutate a recording
// mid-analysis.
var testHookPlanned func(footer bool)

// sampleBounds is what the timeline needs to know about a run of samples
// before bucketing them: n samples, out of them outside [minT, maxT].
type sampleBounds struct {
	n, out     int64
	minT, maxT float64
}

func emptyBounds() sampleBounds { return sampleBounds{minT: math.Inf(1), maxT: math.Inf(-1)} }

func (b *sampleBounds) merge(o sampleBounds) {
	b.n += o.n
	b.out += o.out
	if o.minT < b.minT {
		b.minT = o.minT
	}
	if o.maxT > b.maxT {
		b.maxT = o.maxT
	}
}

// tracePlan is one analysis' input: the jobs that stream its samples and
// the bounds of the samples they keep.
type tracePlan struct {
	jobs   []traceJob
	tr     timeRange
	label  string // pool label of the job fan-out
	weight float64
	bounds sampleBounds
	raw    int64 // pre-scanned samples before time filtering, plus pruned blocks'
	footer bool  // bounds came from DRBWIDX2 footers, not a pre-scan
	its    []*profiledata.IndexedTrace
}

func (p *tracePlan) close() {
	for _, it := range p.its {
		it.Close()
	}
}

// traceJob is one independently decodable portion of a recording — a block
// range of an indexed file, a whole unindexed file, or an in-memory
// recording. blocks hands fn the portion's samples a block at a time,
// decoding on the worker's scratch, and returns the portion's weight; a
// job yields the same samples every time it runs. name and [from, to)
// identify the portion in trace spans: the block range, or the file and
// its index.
type traceJob struct {
	name     string
	from, to int
	blocks   func(bufs *profiledata.Buffers, fn func([]pebs.Sample) error) (weight float64, err error)
}

// each streams the job's samples inside tr to fn, returning the portion's
// weight and its sample count before filtering.
func (j *traceJob) each(bufs *profiledata.Buffers, tr timeRange, fn func([]pebs.Sample) error) (weight float64, raw int64, err error) {
	weight, err = j.blocks(bufs, func(block []pebs.Sample) error {
		raw += int64(len(block))
		return fn(tr.filter(block))
	})
	return weight, raw, err
}

// traceScratch is one worker's reusable analysis state: decode buffers
// shared by the pre-scan and the fused pass, plus the fused pass's
// accumulators. A batch worker keeps one across recordings, so a batch
// allocates in proportion to its worker count, not its recording count.
type traceScratch struct {
	bufs profiledata.Buffers
	acc  *features.Accumulator
	tl   *diagnose.TimelineAccumulator
	dcf  *diagnose.DenseCF // nil when the objects table is invalid
	seen sampleBounds      // decoded samples, measured against the plan
}

func (t *Tool) newScratch() *traceScratch {
	return &traceScratch{acc: features.NewAccumulator(t.machine)}
}

// scratchSet hands each job its worker's scratch. Inline, it holds the
// caller's one scratch and runs every job in the calling goroutine;
// otherwise it grows under a lock as pool workers claim jobs, so a pool
// resized mid-call never drops a worker's samples from the merge.
type scratchSet struct {
	mu     sync.Mutex
	inline bool
	states []*traceScratch
	fresh  func() *traceScratch
}

func (ss *scratchSet) get(w int) *traceScratch {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for len(ss.states) <= w {
		ss.states = append(ss.states, nil)
	}
	if ss.states[w] == nil {
		ss.states[w] = ss.fresh()
	}
	return ss.states[w]
}

// forEachJob runs fn over every job of p. On the pool each job is a child
// span of parent carrying its portion, [from, to), pass number and worker
// id. Errors surface from the lowest-indexed failing job, so reruns are
// deterministic.
func (ss *scratchSet) forEachJob(p *tracePlan, pass int64, parent obs.SpanHandle, fn func(i int, st *traceScratch) error) error {
	if ss.inline {
		for i := range p.jobs {
			if err := fn(i, ss.states[0]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(p.jobs))
	core.ParallelForLabeledSpans(len(p.jobs), p.label, parent, func(i, w int, cs obs.SpanHandle) {
		j := &p.jobs[i]
		cs.SetStr("portion", j.name)
		cs.SetInt("from", int64(j.from))
		cs.SetInt("to", int64(j.to))
		cs.SetInt("pass", pass)
		errs[i] = fn(i, ss.get(w))
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// plan opens samplePaths — one logical recording, in order — and builds
// their job list and bounds. Indexed files contribute block-range chunks
// over the blocks that intersect tr, about four per pool worker so
// stragglers rebalance, or one chunk per contiguous run when inline;
// unindexed files contribute one whole-file job. Without footer bounds the
// jobs are pre-scanned. A plan that keeps no samples is an error.
func plan(samplePaths []string, tr timeRange, label string, ss *scratchSet, parent obs.SpanHandle) (_ *tracePlan, err error) {
	p := &tracePlan{tr: tr, label: label, footer: !tr.limited, bounds: emptyBounds()}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	// A piece is a whole unindexed file (it == nil) or a maximal run of
	// kept blocks; block time ranges need not be sorted, so pruning can
	// split a file's keep-set.
	type piece struct {
		path     string
		shard    int
		it       *profiledata.IndexedTrace
		from, to int
	}
	var pieces []piece
	kept := 0
	for i, path := range samplePaths {
		it, err := profiledata.OpenIndexedTrace(path)
		if err != nil {
			// No usable index — CSV, compressed, foreign, or a damaged
			// footer. A genuinely missing or unreadable file resurfaces
			// when its job opens it.
			p.footer = false
			pieces = append(pieces, piece{path: path, shard: i})
			continue
		}
		p.its = append(p.its, it)
		p.footer = p.footer && it.HasChecksums()
		for b := 0; b < it.Blocks(); b++ {
			if e := it.Entry(b); tr.skipBlock(e) {
				p.raw += int64(e.Count)
				continue
			}
			kept++
			if n := len(pieces); n > 0 && pieces[n-1].it == it && pieces[n-1].to == b {
				pieces[n-1].to++
			} else {
				pieces = append(pieces, piece{path: path, shard: i, it: it, from: b, to: b + 1})
			}
		}
	}
	perChunk := kept
	if !ss.inline {
		perChunk = kept / (core.PoolWorkers() * 4)
	}
	perChunk = max(perChunk, 1)
	for _, pc := range pieces {
		if pc.it == nil {
			p.jobs = append(p.jobs, fileJob(pc.path, pc.shard))
			continue
		}
		name := "blocks"
		if len(samplePaths) > 1 {
			name = pc.path
		}
		for from := pc.from; from < pc.to; from += perChunk {
			p.jobs = append(p.jobs, blockJob(pc.it, name, from, min(from+perChunk, pc.to)))
		}
	}

	if p.footer {
		p.weight = p.its[0].Weight()
		for i, it := range p.its {
			if it.Weight() != p.weight {
				return nil, errShardWeight(samplePaths[i], it.Weight(), p.weight)
			}
			if lo, hi, ok := it.TimeBounds(); ok {
				p.bounds.merge(sampleBounds{n: int64(it.TotalSamples()), minT: lo, maxT: hi})
			}
		}
	}
	if err := p.bound(ss, parent); err != nil {
		return nil, err
	}
	return p, nil
}

// bound completes a plan's bounds: a plan without footer bounds is
// pre-scanned, and a plan that keeps no samples is an error.
func (p *tracePlan) bound(ss *scratchSet, parent obs.SpanHandle) error {
	if !p.footer {
		if err := p.prescan(ss, parent); err != nil {
			return err
		}
	}
	if p.bounds.n == 0 {
		return errNoSamples(p.tr, p.raw)
	}
	return nil
}

// prescan streams every job once to establish the plan's weight and
// bounds: the kept samples' count, the range of their times, and how many
// have a NaN time — counted, not rejected, as the timeline counts them.
func (p *tracePlan) prescan(ss *scratchSet, parent obs.SpanHandle) error {
	found := make([]sampleBounds, len(p.jobs))
	weights := make([]float64, len(p.jobs))
	raws := make([]int64, len(p.jobs))
	err := ss.forEachJob(p, 0, parent, func(i int, st *traceScratch) error {
		b := emptyBounds()
		var err error
		weights[i], raws[i], err = p.jobs[i].each(&st.bufs, p.tr, func(block []pebs.Sample) error {
			b.n += int64(len(block))
			for j := range block {
				tm := block[j].Time
				if tm < b.minT {
					b.minT = tm
				}
				if tm > b.maxT {
					b.maxT = tm
				}
				if tm != tm {
					b.out++
				}
			}
			return nil
		})
		found[i] = b
		return err
	})
	if err != nil {
		return err
	}
	for i := range p.jobs {
		if i == 0 {
			p.weight = weights[0]
		} else if weights[i] != p.weight {
			return errShardWeight(p.jobs[i].name, weights[i], p.weight)
		}
		p.bounds.merge(found[i])
		p.raw += raws[i]
	}
	return nil
}

// fusedPass streams every job of p once, each worker accumulating
// features, pre-bounded timeline buckets and dense CF together, then
// merges the workers in worker order. Counts are integers and sums are
// exact, so the report is bit-identical at any worker count and in any
// split of the kept samples into jobs. A bad objects table only matters
// once classification flags contention.
func (t *Tool) fusedPass(p *tracePlan, objects []alloc.Object, ss *scratchSet, parent obs.SpanHandle) (*Report, error) {
	if testHookPlanned != nil {
		testHookPlanned(p.footer)
	}
	table, tableErr := profiledata.NewTable(objects)
	tl := diagnose.NewTimelineAccumulator(timelineBuckets, p.weight)
	tl.ObserveRange(p.bounds.minT, p.bounds.maxT, int(p.bounds.n))
	nodes := t.machine.Nodes()
	ready := func(st *traceScratch) *traceScratch {
		st.acc.Reset()
		st.tl = tl.Fork()
		st.dcf = nil
		if tableErr == nil {
			st.dcf = diagnose.NewDenseCF(table, nodes, p.weight)
		}
		st.seen = emptyBounds()
		return st
	}
	for _, st := range ss.states {
		if st != nil {
			ready(st)
		}
	}
	ss.fresh = func() *traceScratch { return ready(t.newScratch()) }

	lo, hi := p.bounds.minT, p.bounds.maxT
	err := ss.forEachJob(p, 1, parent, func(i int, st *traceScratch) error {
		weight, _, err := p.jobs[i].each(&st.bufs, p.tr, func(block []pebs.Sample) error {
			st.seen.n += int64(len(block))
			for j := range block {
				s := &block[j]
				if s.SrcNode < 0 || int(s.SrcNode) >= nodes ||
					s.HomeNode < 0 || int(s.HomeNode) >= nodes {
					return fmt.Errorf("drbw: sample references node outside the %d-node machine", nodes)
				}
				if s.Time >= lo && s.Time <= hi {
					if s.Time < st.seen.minT {
						st.seen.minT = s.Time
					}
					if s.Time > st.seen.maxT {
						st.seen.maxT = s.Time
					}
				} else {
					st.seen.out++
				}
			}
			st.acc.Add(block)
			st.tl.Add(block)
			if st.dcf != nil {
				st.dcf.Add(block)
			}
			return nil
		})
		if err == nil && weight != p.weight {
			err = fmt.Errorf("drbw: recording changed during analysis (weight %v, then %v)", p.weight, weight)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var acc *features.Accumulator
	var dcf *diagnose.DenseCF
	seen := emptyBounds()
	for _, st := range ss.states {
		if st == nil {
			continue
		}
		if err := tl.Merge(st.tl); err != nil {
			return nil, err
		}
		seen.merge(st.seen)
		if acc == nil {
			acc, dcf = st.acc, st.dcf
			continue
		}
		if err := acc.Merge(st.acc); err != nil {
			return nil, err
		}
		if dcf != nil {
			if err := dcf.Merge(st.dcf); err != nil {
				return nil, err
			}
		}
	}
	if seen != p.bounds {
		what := "recording changed during analysis (the pre-scan found"
		if p.footer {
			what = "index disagrees with recording (the index claims"
		}
		return nil, fmt.Errorf("drbw: %s %d samples in [%v, %v], %d outside it; decoded %d in [%v, %v], %d outside it)",
			what, p.bounds.n, p.bounds.minT, p.bounds.maxT, p.bounds.out, seen.n, seen.minT, seen.maxT, seen.out)
	}

	contended := t.detector.Classify(acc, p.weight)
	var diag *diagnose.Report
	if len(contended) > 0 {
		if tableErr != nil {
			return nil, tableErr
		}
		diag = dcf.Restrict(contended).Report()
	}
	return newReport(contended, diag, tl.Buckets(), seen.n), nil
}

// blockJob streams blocks [from, to) of an indexed recording.
func blockJob(it *profiledata.IndexedTrace, name string, from, to int) traceJob {
	return traceJob{name: name, from: from, to: to, blocks: func(bufs *profiledata.Buffers, fn func([]pebs.Sample) error) (float64, error) {
		sr, err := it.RangeReader(from, to, bufs)
		if err != nil {
			return 0, err
		}
		return drain(sr, fn)
	}}
}

// fileJob streams a whole samples file, the shard-th input of its plan.
func fileJob(path string, shard int) traceJob {
	return traceJob{name: path, from: shard, to: shard + 1, blocks: func(bufs *profiledata.Buffers, fn func([]pebs.Sample) error) (float64, error) {
		f, err := os.Open(path)
		if err != nil {
			return 0, fmt.Errorf("drbw: %w", err)
		}
		defer f.Close()
		sr, err := profiledata.NewSampleReaderBuffers(f, bufs)
		if err != nil {
			return 0, err
		}
		return drain(sr, fn)
	}}
}

// sliceJob streams an in-memory recording in decode-sized blocks.
func sliceJob(samples []pebs.Sample, weight float64) traceJob {
	return traceJob{name: "memory", to: 1, blocks: func(_ *profiledata.Buffers, fn func([]pebs.Sample) error) (float64, error) {
		for lo := 0; lo < len(samples); lo += profiledata.DefaultBlockSize {
			if err := fn(samples[lo:min(lo+profiledata.DefaultBlockSize, len(samples))]); err != nil {
				return 0, err
			}
		}
		return weight, nil
	}}
}

// drain hands fn every block sr decodes and returns the recording's
// weight.
func drain(sr *profiledata.SampleReader, fn func([]pebs.Sample) error) (float64, error) {
	for {
		block, err := sr.Next()
		if err == io.EOF {
			return sr.Weight(), nil
		}
		if err != nil {
			return 0, err
		}
		if err := fn(block); err != nil {
			return 0, err
		}
	}
}

func errShardWeight(name string, weight, first float64) error {
	return fmt.Errorf("drbw: shard %s has weight %v, the first shard has %v", name, weight, first)
}
