package drbw

// One analysis path: plan, then one fused pass.
//
// Every analysis entry point — a recording in memory or on disk, a time
// window of one, a batch, a set of shards — first turns its inputs into a
// plan: a job list, each job one independently decodable portion of a
// samples file — a block range of a binary file, read through its index,
// or a byte range of whole lines of a CSV file — or, in memory, the whole
// recording, plus the collector weight, read from the first input's
// header. A binary file whose index footer is missing or damaged is an
// error. One fused pass then streams
// every job exactly once, accumulating features, the timeline, and dense
// CF attribution for every channel together; the classifier runs on the
// merged features and the dense counts are restricted to the channels it
// flags. No sample decodes before the fused pass: the timeline keeps the
// few samples it buckets (remote DRAM only) and fixes its geometry once
// the pass has seen the whole range.
//
// After the pass, every job's weight must equal the plan's — shards
// recorded at different weights do not merge. A binary recording analyzed
// whole also states its sample count and time range in its
// footer; the pass's count and range must match it, or the analysis fails
// as "index disagrees with recording". Every decoded block of an indexed
// recording is verified against its footer checksum too, which covers what
// the footer's own claims cannot: the payload bytes. A CSV range must
// still start and end at a line boundary when it is read, or the recording
// changed after it was cut. When a CSV range fails, the file is read again
// from its header, so the error is the one a whole-file read reports, line
// numbers included.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"

	"drbw/internal/alloc"
	"drbw/internal/core"
	"drbw/internal/obs"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
)

// testHookPlanned, when non-nil, runs after planning and before the fused
// pass, told whether the pass is checked against index-footer bounds.
// Tests use it to see which inputs are footer-checked and to mutate a
// recording mid-analysis.
var testHookPlanned func(footer bool)

// sampleBounds summarizes a run of samples: n samples spanning [minT,
// maxT].
type sampleBounds struct {
	n          int64
	minT, maxT float64
}

func emptyBounds() sampleBounds { return sampleBounds{minT: math.Inf(1), maxT: math.Inf(-1)} }

func (b *sampleBounds) merge(o sampleBounds) {
	b.n += o.n
	if o.minT < b.minT {
		b.minT = o.minT
	}
	if o.maxT > b.maxT {
		b.maxT = o.maxT
	}
}

// tracePlan is one analysis' input: the jobs that stream its samples and
// what is known of them before the pass.
type tracePlan struct {
	jobs   []traceJob
	tr     timeRange
	label  string // pool label of the job fan-out
	weight float64
	raw    int64         // samples in blocks the time window pruned
	footer *sampleBounds // index footers' claim; nil unless every input has one and tr keeps all
	its    []*profiledata.IndexedTrace
	files  []*os.File // CSV recordings, read by their range jobs
}

func (p *tracePlan) close() {
	for _, it := range p.its {
		it.Close()
	}
	for _, f := range p.files {
		f.Close()
	}
}

// traceJob is one independently decodable portion of a recording — a block
// range of a binary file, a byte range of a CSV file, or an in-memory
// recording. blocks hands fn the portion's samples a block at a time,
// decoding on the worker's scratch, and returns the portion's weight. name
// and [from, to) identify the portion in trace spans: the block range, or
// the CSV file and its byte range.
type traceJob struct {
	name     string
	from, to int
	blocks   func(bufs *profiledata.Buffers, fn func([]pebs.Sample) error) (weight float64, err error)
	csv      *csvRange // the byte range of a CSV job, else nil
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
// plus the fused pass's sweep. A batch worker keeps one across recordings,
// so a batch's decode buffers scale with its worker count, not its
// recording count.
type traceScratch struct {
	bufs  profiledata.Buffers
	sweep *core.Sweep
}

func (t *Tool) newScratch() *traceScratch {
	return &traceScratch{sweep: core.NewSweep(t.machine)}
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
// span of parent carrying its portion, [from, to) and worker id. Errors
// surface from the lowest-indexed failing job, returned with its index, so
// reruns are deterministic; every job before it has completed.
func (ss *scratchSet) forEachJob(p *tracePlan, parent obs.SpanHandle, fn func(i int, st *traceScratch) error) (int, error) {
	if ss.inline {
		for i := range p.jobs {
			if err := fn(i, ss.states[0]); err != nil {
				return i, err
			}
		}
		return 0, nil
	}
	errs := make([]error, len(p.jobs))
	core.ParallelForLabeledSpans(len(p.jobs), p.label, parent, func(i, w int, cs obs.SpanHandle) {
		j := &p.jobs[i]
		cs.SetStr("portion", j.name)
		cs.SetInt("from", int64(j.from))
		cs.SetInt("to", int64(j.to))
		errs[i] = fn(i, ss.get(w))
	})
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return 0, nil
}

// plan opens samplePaths — one logical recording, in order — and builds
// their job list. Binary files contribute block-range chunks over the
// blocks that intersect tr, about four per pool worker so stragglers
// rebalance, or one chunk per contiguous run when inline. CSV files
// contribute byte ranges of whole lines in the same way (see csvJobs), one
// per file when inline. The weight comes from the first input's header; no
// sample decodes. An input after the first that cannot be opened becomes a
// job that fails with the error, so a job before it still fails first.
func plan(samplePaths []string, tr timeRange, label string, inline bool) (_ *tracePlan, err error) {
	p := &tracePlan{tr: tr, label: label}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	// A piece is a CSV file, open as f; a maximal run of kept blocks of a
	// binary file, whose block time ranges need not be sorted, so pruning
	// can split its keep-set; or an input that failed to open.
	type piece struct {
		path     string
		it       *profiledata.IndexedTrace
		from, to int
		f        *os.File
		hdr      profiledata.Header
		err      error
	}
	var pieces []piece
	kept := 0
	footer, claim := !tr.limited, emptyBounds()
	for i, path := range samplePaths {
		it, f, hdr, err := openSamples(path)
		if err != nil {
			if i == 0 {
				return nil, err
			}
			pieces = append(pieces, piece{path: path, err: err})
			continue
		}
		if f != nil {
			footer = false
			p.files = append(p.files, f)
			if i == 0 {
				p.weight = hdr.Weight
			}
			pieces = append(pieces, piece{path: path, f: f, hdr: hdr})
			continue
		}
		p.its = append(p.its, it)
		if i == 0 {
			p.weight = it.Weight()
		}
		if lo, hi, ok := it.TimeBounds(); ok {
			claim.merge(sampleBounds{n: int64(it.TotalSamples()), minT: lo, maxT: hi})
		}
		for b := 0; b < it.Blocks(); b++ {
			if e := it.Entry(b); tr.skipBlock(e) {
				p.raw += int64(e.Count)
				continue
			}
			kept++
			if n := len(pieces); n > 0 && pieces[n-1].it == it && pieces[n-1].to == b {
				pieces[n-1].to++
			} else {
				pieces = append(pieces, piece{path: path, it: it, from: b, to: b + 1})
			}
		}
	}
	if footer {
		p.footer = &claim
	}
	perChunk := kept
	if !inline {
		perChunk = kept / (runtime.GOMAXPROCS(0) * 4)
	}
	perChunk = max(perChunk, 1)
	for _, pc := range pieces {
		switch {
		case pc.err != nil:
			p.jobs = append(p.jobs, errJob(pc.path, pc.err))
		case pc.f != nil:
			jobs, err := csvJobs(pc.f, pc.path, pc.hdr, inline)
			if err != nil {
				return nil, err
			}
			p.jobs = append(p.jobs, jobs...)
		default:
			name := "blocks"
			if len(samplePaths) > 1 {
				name = pc.path
			}
			for from := pc.from; from < pc.to; from += perChunk {
				p.jobs = append(p.jobs, blockJob(pc.it, name, from, min(from+perChunk, pc.to)))
			}
		}
	}
	return p, nil
}

// openSamples opens a samples file: a binary recording through its block
// index, or a CSV recording, left open for its range jobs, with its header.
// A binary recording whose index is missing or fails validation is an
// error naming the file.
func openSamples(path string) (*profiledata.IndexedTrace, *os.File, profiledata.Header, error) {
	it, ierr := profiledata.OpenIndexedTrace(path)
	if ierr == nil {
		return it, nil, profiledata.Header{}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, profiledata.Header{}, fmt.Errorf("drbw: %w", err)
	}
	h, err := profiledata.ReadHeader(f)
	if err == nil && h.Format == profiledata.FormatBinaryV4 {
		err = fmt.Errorf("drbw: binary recording %s has no valid block index (LoadTrace then SaveAs rewrites it with one): %w", path, ierr)
	}
	if err != nil {
		f.Close()
		return nil, nil, h, err
	}
	return nil, f, h, nil
}

// csvMinRange is the smallest byte range a CSV recording is split into.
const csvMinRange = 64 << 10

// csvJobs splits the data rows of the CSV recording f, from the header's
// end to EOF, into byte-range jobs: one when inline, else about four per
// pool worker of at least csvMinRange bytes each. The cut points are the
// line boundaries found by csvCuts.
func csvJobs(f *os.File, path string, h profiledata.Header, inline bool) ([]traceJob, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("drbw: %w", err)
	}
	start, size := h.Data.Offset, max(fi.Size(), h.Data.Offset)
	n := 1
	if !inline {
		n = csvRanges(size - start)
	}
	cuts, err := csvCuts(f, start, size, n)
	if err != nil {
		return nil, fmt.Errorf("drbw: %s: %w", path, err)
	}
	cuts = append(append([]int64{start}, cuts...), size)
	jobs := make([]traceJob, 0, len(cuts)-1)
	for k := 1; k < len(cuts); k++ {
		r := &csvRange{f: f, hdr: h, name: path, from: cuts[k-1], to: cuts[k], last: k == len(cuts)-1}
		jobs = append(jobs, traceJob{name: path, from: int(r.from), to: int(r.to), csv: r, blocks: r.stream})
	}
	return jobs, nil
}

// csvRanges is how many ranges a pool plan aims to cut n bytes of CSV
// data rows into: about four per pool worker, each of at least csvMinRange
// bytes.
func csvRanges(n int64) int {
	return int(min(int64(runtime.GOMAXPROCS(0)*4), n/csvMinRange))
}

// csvCuts returns the cut points that split [start, size) of r into at
// most n ranges of whole lines: each target start + k·(size-start)/n, for
// k in 1..n-1, moves to just after the first '\n' at or after it, found
// with a few small ReadAt probes. A target inside the previous range's
// last line is dropped, as is one with no '\n' left before size.
func csvCuts(r io.ReaderAt, start, size int64, n int) ([]int64, error) {
	var cuts []int64
	var buf []byte
	last := start
	for k := 1; k < n; k++ {
		off := start + int64(k)*(size-start)/int64(n)
		if off < last {
			continue
		}
		if buf == nil {
			buf = make([]byte, 512)
		}
		for {
			m, err := r.ReadAt(buf[:min(int64(len(buf)), size-off)], off)
			if i := bytes.IndexByte(buf[:m], '\n'); i >= 0 {
				off += int64(i) + 1
				break
			}
			if err != nil && err != io.EOF {
				return nil, err
			}
			if off += int64(m); m == 0 || off >= size {
				return cuts, nil
			}
		}
		if off >= size {
			break
		}
		cuts = append(cuts, off)
		last = off
	}
	return cuts, nil
}

// fusedPass streams every job of p once, each worker accumulating into
// its own core.Sweep — features, timeline and dense CF together, the same
// accumulation live detection takes — then merges the workers in worker
// order. Counts are integers and sums are exact, so the report is
// bit-identical at any worker count and in any split of the kept samples
// into jobs. The pass runs inline on sc when it is non-nil, on the pool
// otherwise. A bad objects table only matters once classification flags
// contention.
func (t *Tool) fusedPass(p *tracePlan, objects []alloc.Object, sc *traceScratch, parent obs.SpanHandle) (*Report, error) {
	if testHookPlanned != nil {
		testHookPlanned(p.footer != nil)
	}
	table, tableErr := profiledata.NewTable(objects)
	ready := func(st *traceScratch) *traceScratch {
		st.sweep.Reset(table, p.weight)
		return st
	}
	ss := &scratchSet{fresh: func() *traceScratch { return ready(t.newScratch()) }}
	if sc != nil {
		ss.inline, ss.states = true, []*traceScratch{ready(sc)}
	}

	weights := make([]float64, len(p.jobs))
	raws := make([]int64, len(p.jobs))
	failed, err := ss.forEachJob(p, parent, func(i int, st *traceScratch) error {
		var err error
		weights[i], raws[i], err = p.jobs[i].each(&st.bufs, p.tr, st.sweep.Add)
		return err
	})
	if err != nil {
		if r := p.jobs[failed].csv; r != nil {
			err = r.wholeFileError(err, p.tr, ss.get(0).sweep.Check)
		}
		return nil, err
	}
	raw := p.raw
	for i, w := range weights {
		if w != p.weight {
			return nil, errShardWeight(p.jobs[i].name, w, p.weight)
		}
		raw += raws[i]
	}

	var sw *core.Sweep
	for _, st := range ss.states {
		if st == nil {
			continue
		}
		if sw == nil {
			sw = st.sweep
		} else if err := sw.Merge(st.sweep); err != nil {
			return nil, err
		}
	}
	seen := emptyBounds()
	if sw != nil {
		seen.n, seen.minT, seen.maxT = sw.Range()
	}
	if p.footer != nil && seen != *p.footer {
		return nil, fmt.Errorf("drbw: index disagrees with recording (the index claims %d samples in [%v, %v]; decoded %d in [%v, %v])",
			p.footer.n, p.footer.minT, p.footer.maxT, seen.n, seen.minT, seen.maxT)
	}
	if seen.n == 0 {
		return nil, errNoSamples(p.tr, raw)
	}

	contended, diag, timeline := sw.Finish(t.detector)
	if len(contended) > 0 && tableErr != nil {
		return nil, tableErr
	}
	return newReport(contended, diag, timeline, seen.n), nil
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

// csvRange is one job's share of a CSV recording's data rows: bytes
// [from, to) of f, a run of whole lines, or from on to EOF for the file's
// last range.
type csvRange struct {
	f        *os.File
	hdr      profiledata.Header
	name     string
	from, to int64
	last     bool
}

// first reports whether the range starts at the file's first data row.
func (r *csvRange) first() bool { return r.from == r.hdr.Data.Offset }

// stream hands fn the range's samples. The first range of a file counts
// rows and lines from the header's end; a later one counts from zero,
// since the ranges before it may still be running, and must follow a '\n'.
// A range before the last must end in one too; otherwise the recording
// changed after it was cut, and a row split across two ranges could parse
// as two valid rows.
func (r *csvRange) stream(bufs *profiledata.Buffers, fn func([]pebs.Sample) error) (float64, error) {
	at := profiledata.CSVPos{Offset: r.from}
	if r.first() {
		at = r.hdr.Data
	} else if err := r.atLineStart(r.from); err != nil {
		return 0, err
	}
	n := r.to - r.from
	if r.last {
		n = math.MaxInt64 - r.from
	}
	sr := profiledata.NewCSVSectionReader(io.NewSectionReader(r.f, r.from, n), r.hdr, at, bufs)
	weight, err := drain(sr, fn)
	if err != nil || r.last {
		return weight, err
	}
	if sr.Pos().Offset != r.to {
		return 0, errChanged(r.name, r.to)
	}
	if err := r.atLineStart(r.to); err != nil {
		return 0, err
	}
	return weight, nil
}

// atLineStart checks that the byte before off is a '\n'.
func (r *csvRange) atLineStart(off int64) error {
	var b [1]byte
	if _, err := r.f.ReadAt(b[:], off-1); err != nil || b[0] != '\n' {
		return errChanged(r.name, off)
	}
	return nil
}

// wholeFileError turns err, the error of a failed range of a split file,
// into the error a read of the whole file reports; a recording that
// changed since it was cut keeps that error. It reads the file again from
// its header, in a whole-file read's blocks, running check, the pass's
// sample check, on the samples inside tr. Every range before the failed
// one passed, so the read stops at an error in the failed range or in the
// block that straddles its end; only the error path reads a file twice.
func (r *csvRange) wholeFileError(err error, tr timeRange, check func([]pebs.Sample) error) error {
	if r.first() && r.last || errors.Is(err, errChangedRecording) {
		return err
	}
	whole := csvRange{f: r.f, hdr: r.hdr, name: r.name, from: r.hdr.Data.Offset, last: true}
	_, rerr := whole.stream(new(profiledata.Buffers), func(block []pebs.Sample) error { return check(tr.filter(block)) })
	if rerr == nil {
		return err
	}
	return rerr
}

var errChangedRecording = errors.New("changed during analysis")

func errChanged(name string, off int64) error {
	return fmt.Errorf("drbw: recording %s %w: byte %d no longer starts a line", name, errChangedRecording, off)
}

// errJob fails with err: the job of an input that could not be opened.
func errJob(path string, err error) traceJob {
	return traceJob{name: path, blocks: func(*profiledata.Buffers, func([]pebs.Sample) error) (float64, error) {
		return 0, err
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
