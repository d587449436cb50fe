package drbw

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"drbw/internal/alloc"
	"drbw/internal/obs"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
)

// TraceFormat selects the on-disk samples encoding.
type TraceFormat string

// Supported trace formats. Reading always autodetects; the format only
// matters when writing.
const (
	// FormatCSV is the line-oriented text format (v2 with the weight meta
	// row) — greppable, produced and consumed by shell tooling.
	FormatCSV TraceFormat = "csv"
	// FormatBinary is the binary columnar format (v4) — several times
	// smaller and faster to decode, the right choice for large traces. Its
	// block index footer lets AnalyzeTraceFile fan the blocks across the
	// worker pool.
	FormatBinary TraceFormat = "binary"
)

// SaveAs writes the recording as a samples file in format and a CSV
// objects table (it is tiny and hand-editable either way). Every record is
// validated before any file is created, and a file that fails mid-write is
// removed, so a bad recording never leaves a truncated file behind.
func (td *TraceData) SaveAs(samplesPath, objectsPath string, format TraceFormat) error {
	samples, weight, err := td.samples()
	if err != nil {
		return err
	}
	var writeSamples func(io.Writer) error
	switch format {
	case FormatCSV:
		writeSamples = func(w io.Writer) error {
			return profiledata.WriteSamples(w, samples, weight)
		}
	case FormatBinary:
		writeSamples = func(w io.Writer) error {
			return profiledata.WriteSamplesBinary(w, samples, weight, profiledata.DefaultBlockSize)
		}
	default:
		return fmt.Errorf("drbw: unknown trace format %q (want %q or %q)", format, FormatCSV, FormatBinary)
	}
	if err := writeFile(samplesPath, writeSamples); err != nil {
		return err
	}
	return writeFile(objectsPath, func(w io.Writer) error {
		return profiledata.WriteObjects(w, td.internalObjects())
	})
}

// TracePaths names one recording's two files.
type TracePaths struct {
	Samples string
	Objects string
}

// timeRange restricts an analysis to samples with Time in [lo, hi]
// (inclusive). The zero value keeps everything.
type timeRange struct {
	lo, hi  float64
	limited bool
}

func fullRange() timeRange { return timeRange{} }

// filter compacts block, in place, down to the samples inside the range.
func (tr timeRange) filter(block []pebs.Sample) []pebs.Sample {
	if !tr.limited {
		return block
	}
	out := block[:0]
	for i := range block {
		if s := &block[i]; s.Time >= tr.lo && s.Time <= tr.hi {
			out = append(out, *s)
		}
	}
	return out
}

// skipBlock prunes an indexed block whose whole time range misses tr.
func (tr timeRange) skipBlock(e profiledata.IndexEntry) bool {
	return tr.limited && (e.MaxTime < tr.lo || e.MinTime > tr.hi)
}

// AnalyzeTraceFile runs the AnalyzeTrace pipeline directly off a recording
// on disk, in one fused decode pass. A binary recording is read through its
// block index footer: the blocks are fanned across the shared worker pool,
// each worker streaming its own block range with its own decode scratch
// into mergeable accumulators, and the merged result is bit-identical to
// the serial analysis at any worker count. A binary recording whose footer
// is missing or damaged is an error naming the file. A CSV recording is cut
// into byte ranges of whole lines, fanned out the same way. Either way
// peak memory is bounded by block size × workers plus the timeline's
// column of 16 B per remote-DRAM sample — at most 1.92 MB for a recording
// capped at the collector's default 120,000 kept samples — and the report
// is bit-identical to LoadTrace + AnalyzeTrace on the same files.
func (t *Tool) AnalyzeTraceFile(samplesPath, objectsPath string) (*Report, error) {
	rep, err := t.analyzeRecording([]string{samplesPath}, objectsPath, fullRange(), nil)
	return rep, obs.FlightFailure("analyze.trace_file", err)
}

// AnalyzeTraceFileRange is AnalyzeTraceFile restricted to samples with
// Time in [lo, hi] (inclusive): the report is exactly AnalyzeTrace over
// the recording with every other sample dropped. On a binary recording,
// blocks whose time range misses the window are never read at all.
func (t *Tool) AnalyzeTraceFileRange(samplesPath, objectsPath string, lo, hi float64) (*Report, error) {
	if !(lo <= hi) {
		return nil, fmt.Errorf("drbw: invalid time range [%v, %v]", lo, hi)
	}
	rep, err := t.analyzeRecording([]string{samplesPath}, objectsPath, timeRange{lo: lo, hi: hi, limited: true}, nil)
	return rep, obs.FlightFailure("analyze.trace_file_range", err)
}

// analyzeRecording analyzes one logical recording — samplePaths in order,
// sharing objectsPath — restricted to tr, through the cache when one is
// attached. The cache's singleflight also dedups a recording listed more
// than once in a batch — the duplicates decode once and every slot gets the
// report. sc, when non-nil, is the calling batch worker's scratch. One
// samples file runs under an analyze.trace_file span, its jobs labelled
// analyze.blocks; several run under analyze.shards.
func (t *Tool) analyzeRecording(samplePaths []string, objectsPath string, tr timeRange, sc *traceScratch) (*Report, error) {
	if len(samplePaths) == 0 {
		return nil, fmt.Errorf("drbw: no sample shards given")
	}
	analyze := func() (*Report, error) {
		var sp obs.SpanHandle
		label := "analyze.shards"
		if len(samplePaths) == 1 {
			sp, label = obs.BeginSpan("analyze.trace_file"), "analyze.blocks"
			sp.SetStr("samples", samplePaths[0])
		} else {
			sp = obs.BeginSpan("analyze.shards")
			sp.SetInt("shards", int64(len(samplePaths)))
		}
		defer sp.End()
		objects, err := readObjectsFile(objectsPath)
		if err != nil {
			return nil, err
		}
		if sc == nil && runtime.GOMAXPROCS(0) == 1 {
			sc = t.newScratch()
		}
		p, err := plan(samplePaths, tr, label, sc != nil)
		if err != nil {
			return nil, err
		}
		defer p.close()
		return t.fusedPass(p, objects, sc, sp)
	}
	if t.cache != nil {
		if key, err := t.analyzeKey(samplePaths, objectsPath, tr); err == nil {
			return cached(t.cache, key, analyze)
		}
		// Fingerprinting failed — missing file, unreadable bytes. Fall
		// through uncached so the analysis itself surfaces the real error.
	}
	return analyze()
}

// AnalyzeTraceFiles is AnalyzeTraceFile over a batch of recordings on the
// shared worker pool, with the AnalyzeTraces partial-result semantics:
// reports[i] is nil exactly when recording i failed, and a *BatchError
// aggregates the failures. Each recording is analyzed inline on its batch
// worker — the batch itself is the parallelism — with per-worker decode
// buffers and accumulators, so the batch allocates like a handful of
// serial analyses.
func (t *Tool) AnalyzeTraceFiles(paths []TracePaths) ([]*Report, error) {
	if len(paths) == 1 {
		// A one-recording batch has no cross-file parallelism to exploit;
		// route it through AnalyzeTraceFile so the recording fans its
		// block or byte ranges across the pool instead of streaming inline.
		// The reports are bit-identical either way.
		rep, err := t.AnalyzeTraceFile(paths[0].Samples, paths[0].Objects)
		return []*Report{rep}, batchError([]error{err}, nil)
	}
	reports, err := t.analyzeBatch(len(paths), "analyze.tracefiles", func(i int, sc *traceScratch, cs obs.SpanHandle) (*Report, error) {
		cs.SetStr("samples", paths[i].Samples)
		return t.analyzeRecording([]string{paths[i].Samples}, paths[i].Objects, fullRange(), sc)
	})
	return reports, obs.FlightFailure("analyze.tracefiles", err)
}

// AnalyzeTraceShards analyzes one logical recording that was captured as
// several sample files — shards — sharing a single objects table. All
// shards must carry the same collector weight. Shards are analyzed
// concurrently on the worker pool and the merged report is bit-identical
// to analyzing the concatenation of the shards in order.
func (t *Tool) AnalyzeTraceShards(samplePaths []string, objectsPath string) (*Report, error) {
	rep, err := t.analyzeRecording(samplePaths, objectsPath, fullRange(), nil)
	return rep, obs.FlightFailure("analyze.shards", err)
}

// AnalyzeTraceShardDir is AnalyzeTraceShards over a directory: every
// "*.samples.*" file (sorted by name) is a shard, and the single
// "*.objects.csv" file is the shared objects table.
func (t *Tool) AnalyzeTraceShardDir(dir string) (*Report, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, obs.FlightFailure("analyze.shard_dir", fmt.Errorf("drbw: %w", err))
	}
	var shards []string
	var objects []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.Contains(name, ".samples."):
			shards = append(shards, filepath.Join(dir, name))
		case strings.HasSuffix(name, ".objects.csv"):
			objects = append(objects, filepath.Join(dir, name))
		}
	}
	if len(shards) == 0 {
		return nil, obs.FlightFailure("analyze.shard_dir", fmt.Errorf("drbw: no *.samples.* shards in %s", dir))
	}
	if len(objects) != 1 {
		return nil, obs.FlightFailure("analyze.shard_dir", fmt.Errorf("drbw: %s holds %d *.objects.csv files, want exactly one", dir, len(objects)))
	}
	sort.Strings(shards)
	return t.AnalyzeTraceShards(shards, objects[0])
}

// errNoSamples distinguishes an empty recording from a time window that
// excluded everything.
func errNoSamples(tr timeRange, rawSamples int64) error {
	if tr.limited && rawSamples > 0 {
		return fmt.Errorf("drbw: no samples in time range [%v, %v]", tr.lo, tr.hi)
	}
	return fmt.Errorf("drbw: recording has no samples")
}

// readObjectsFile loads a recorded objects table.
func readObjectsFile(path string) ([]alloc.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("drbw: %w", err)
	}
	defer f.Close()
	return profiledata.ReadObjects(f)
}
