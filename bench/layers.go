package main

// The traced run. Each operation is rebuilt from the exported functions of
// the layers the public call goes through, in the order the program calls
// them, and every layer call is wrapped in a span started here. A layer's
// per-operation value is its self time (span time minus child spans),
// aggregated from the exported span tree, so the per-layer numbers and the
// trace a reader opens can never disagree. The rebuilds run serially on
// the caller's goroutine: where the public call fans blocks out over the
// worker pool, the traced operation is slower by that parallelism, and
// obs.trace_overhead_pct shows it.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"drbw"
	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/core"
	"drbw/internal/diagnose"
	"drbw/internal/engine"
	"drbw/internal/features"
	"drbw/internal/obs"
	"drbw/internal/optimize"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
	"drbw/internal/program"
	"drbw/internal/search"
	"drbw/internal/topology"
	"drbw/internal/trace"
	"drbw/internal/workloads"
)

// Root span names and the attributes the aggregation reads.
const (
	spanOp        = "bench.op"
	spanCandidate = "optimize.candidate"
	spanCacheLoop = "cache.access_loop"
	spanTraceLoop = "trace.fill_loop"

	attrSamples   = "samples"
	attrKept      = "kept"
	attrAccesses  = "accesses"
	attrHitPrefix = "hits."
)

// Layer spans: one per exported layer function a rebuild calls.
const (
	lBuild     = "program.build"
	lEngine    = "engine.run"
	lSamples   = "pebs.samples"
	lFeatures  = "features"
	lPredict   = "dtree.predict"
	lAnalyze   = "diagnose.analyze"
	lTimeline  = "diagnose.timeline"
	lOpen      = "profiledata.open"
	lDecodeBin = "profiledata.decode.binary"
	lDecodeCSV = "profiledata.decode.csv"
	lDenseCF   = "diagnose.densecf"
	lCFAcc     = "diagnose.cfacc"
	lDetect    = "core.detect"
	lBase      = "optimize.base"
	lSearch    = "search.run"
)

// layerNames lists every layer span, for the share of operation time.
var layerNames = []string{
	lBuild, lEngine, lSamples, lFeatures, lPredict, lAnalyze, lTimeline, lOpen,
	lDecodeBin, lDecodeCSV, lDenseCF, lCFAcc, lDetect, lBase, lSearch,
}

// simLayers are the spans that simulate, for the simulated access rate.
var simLayers = []string{lEngine, lDetect, lBase, lSearch}

// timelineBuckets is the length of drbw.Report.Timeline. The fingerprint
// carries the bucket count, so a rebuilt report with another resolution
// fails its check.
const timelineBuckets = 32

// Iterations of the fixed substrate loops; -smoke shrinks them.
const (
	loopAccesses      = 1 << 24
	smokeLoopAccesses = 1 << 14
)

// in runs fn inside a child span of sp named layer.
func in(sp obs.SpanHandle, layer string, fn func()) {
	s := sp.Child(layer)
	fn()
	s.End()
}

func programConfig(c drbw.Case) program.Config {
	return program.Config{Threads: c.Threads, Nodes: c.Nodes, Input: c.Input, Seed: c.Seed}
}

func builderOf(name string) (program.Builder, error) {
	e, ok := workloads.ByName(name)
	if !ok {
		return program.Builder{}, fmt.Errorf("unknown benchmark %q", name)
	}
	return e.Builder, nil
}

// classify is the tool's classification step: per-channel Table I vectors
// from the accumulated samples, then the tree's verdict on each.
func (b *bench) classify(sp obs.SpanHandle, acc *features.Accumulator, weight float64) []topology.Channel {
	var vecs map[topology.Channel]features.Vector
	in(sp, lFeatures, func() { vecs = acc.Vectors(weight, b.det.MinSamples) })
	var contended []topology.Channel
	in(sp, lPredict, func() {
		for ch, vec := range vecs {
			v := vec
			if features.Label(b.tree.Predict(v[:])) == features.RMC {
				contended = append(contended, ch)
			}
		}
	})
	sort.Slice(contended, func(i, j int) bool {
		a, c := contended[i], contended[j]
		return a.Src < c.Src || (a.Src == c.Src && a.Dst < c.Dst)
	})
	return contended
}

// rebuiltOutcome fingerprints a rebuilt report the way reportOutcome
// fingerprints the public one.
func rebuiltOutcome(contended []topology.Channel, top []string, samples int64, buckets int) outcome {
	var channels []string
	for _, ch := range contended {
		channels = append(channels, ch.String())
	}
	return outcome{fp: fingerprint(len(contended) > 0, channels, top, samples, buckets), samples: samples}
}

func topObjects(rep *diagnose.Report) []string {
	var out []string
	for i := 0; i < 3 && i < len(rep.Overall); i++ {
		out = append(out, rep.Overall[i].Object.Name)
	}
	return out
}

// tracedDetect rebuilds Tool.Analyze: build, profiled run, the
// collector's time-ordered samples, features, classification, diagnosis of
// the contended channels, timeline.
func (b *bench) tracedDetect(sp obs.SpanHandle, bc benchCase) (outcome, error) {
	bld, err := builderOf(bc.bench)
	if err != nil {
		return outcome{}, err
	}
	cfg := programConfig(bc.c)
	var p *program.Program
	in(sp, lBuild, func() { p, err = bld.New(b.machine, cfg) })
	if err != nil {
		return outcome{}, err
	}
	var col *pebs.Collector
	in(sp, lEngine, func() {
		// core.Detector.Detect's collector and run seeds.
		ccfg := b.det.Ccfg
		ccfg.Flavor = b.det.Ecfg.SamplerFlavor
		col = pebs.NewCollector(ccfg, cfg.Seed+101)
		run := b.det.Ecfg
		run.Collector = col
		run.Seed = cfg.Seed + 103
		_, err = p.Run(run)
	})
	if err != nil {
		return outcome{}, err
	}
	var samples []pebs.Sample
	var weight float64
	in(sp, lSamples, func() { samples, weight = col.Samples(), col.Weight() })
	var acc *features.Accumulator
	in(sp, lFeatures, func() {
		acc = features.NewAccumulator(b.machine)
		acc.Add(samples)
	})
	contended := b.classify(sp, acc, weight)
	var top []string
	if len(contended) > 0 {
		in(sp, lAnalyze, func() { top = topObjects(diagnose.Analyze(p.Heap, samples, contended, weight)) })
	}
	var buckets []diagnose.Bucket
	in(sp, lTimeline, func() { buckets = diagnose.Timeline(samples, timelineBuckets, weight) })
	n := int64(len(samples))
	return rebuiltOutcome(contended, top, n, len(buckets)), nil
}

// drain decodes sr block by block, each Next call in a span named layer,
// and hands every block to visit. With a window, the decode span also
// drops the samples outside it. It returns the samples visited.
func drain(sp obs.SpanHandle, layer string, sr *profiledata.SampleReader, window *[2]float64, visit func([]pebs.Sample)) (int64, error) {
	var visited int64
	for {
		s := sp.Child(layer)
		block, err := sr.Next()
		s.SetInt(attrSamples, int64(len(block)))
		if err == nil && window != nil {
			block = inWindow(block, window[0], window[1])
			s.SetInt(attrKept, int64(len(block)))
		}
		s.End()
		if err == io.EOF {
			return visited, nil
		}
		if err != nil {
			return visited, err
		}
		visited += int64(len(block))
		visit(block)
	}
}

// inWindow compacts block, in place, to the samples with Time in [lo, hi].
func inWindow(block []pebs.Sample, lo, hi float64) []pebs.Sample {
	out := block[:0]
	for i := range block {
		if s := &block[i]; s.Time >= lo && s.Time <= hi {
			out = append(out, *s)
		}
	}
	return out
}

func readObjects(path string) ([]alloc.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return profiledata.ReadObjects(f)
}

// tracedIndexed rebuilds AnalyzeTraceFile's fused single pass over an
// indexed recording: the index supplies the time range up front, so
// features, timeline and dense CF accumulate in one decode sweep.
func (b *bench) tracedIndexed(sp obs.SpanHandle, rec recording) (outcome, error) {
	var (
		table *profiledata.Table
		it    *profiledata.IndexedTrace
		sr    *profiledata.SampleReader
		bufs  profiledata.Buffers
		err   error
	)
	in(sp, lOpen, func() {
		var objs []alloc.Object
		if objs, err = readObjects(rec.objects); err != nil {
			return
		}
		if table, err = profiledata.NewTable(objs); err != nil {
			return
		}
		if it, err = profiledata.OpenIndexedTrace(rec.bin); err != nil {
			return
		}
		sr, err = it.RangeReader(0, it.Blocks(), &bufs)
	})
	if it != nil {
		defer it.Close()
	}
	if err != nil {
		return outcome{}, err
	}
	weight := it.Weight()
	minT, maxT, _ := it.TimeBounds()
	var (
		acc *features.Accumulator
		tl  *diagnose.TimelineAccumulator
		dcf *diagnose.DenseCF
	)
	in(sp, lFeatures, func() { acc = features.NewAccumulator(b.machine) })
	in(sp, lTimeline, func() {
		tl = diagnose.NewTimelineAccumulator(timelineBuckets, weight)
		tl.ObserveRange(minT, maxT, it.TotalSamples())
	})
	in(sp, lDenseCF, func() { dcf = diagnose.NewDenseCF(table, b.machine.Nodes(), weight) })
	n, err := drain(sp, lDecodeBin, sr, nil, func(block []pebs.Sample) {
		in(sp, lFeatures, func() { acc.Add(block) })
		in(sp, lTimeline, func() { tl.Add(block) })
		in(sp, lDenseCF, func() { dcf.Add(block) })
	})
	if err != nil {
		return outcome{}, err
	}
	contended := b.classify(sp, acc, weight)
	var top []string
	if len(contended) > 0 {
		in(sp, lDenseCF, func() { top = topObjects(dcf.Restrict(contended).Report()) })
	}
	var buckets []diagnose.Bucket
	in(sp, lTimeline, func() { buckets = tl.Buckets() })
	return rebuiltOutcome(contended, top, n, len(buckets)), nil
}

// twoPass rebuilds the two-pass analysis both fallback paths share. Pass
// one accumulates features and observes the timeline's range; after
// classification, pass two buckets the timeline and attributes CF on the
// contended channels. pass streams the recording once, calling onOpen with
// its weight before the first block.
func (b *bench) twoPass(sp obs.SpanHandle, objectsPath string, pass func(onOpen func(float64), visit func([]pebs.Sample)) (int64, error)) (outcome, error) {
	var objs []alloc.Object
	var err error
	in(sp, lOpen, func() { objs, err = readObjects(objectsPath) })
	if err != nil {
		return outcome{}, err
	}
	var (
		acc    *features.Accumulator
		tl     *diagnose.TimelineAccumulator
		weight float64
	)
	in(sp, lFeatures, func() { acc = features.NewAccumulator(b.machine) })
	n, err := pass(func(w float64) {
		weight = w
		in(sp, lTimeline, func() { tl = diagnose.NewTimelineAccumulator(timelineBuckets, w) })
	}, func(block []pebs.Sample) {
		in(sp, lFeatures, func() { acc.Add(block) })
		in(sp, lTimeline, func() { tl.Observe(block) })
	})
	if err != nil {
		return outcome{}, err
	}
	if n == 0 {
		return outcome{}, fmt.Errorf("no samples")
	}
	contended := b.classify(sp, acc, weight)
	var cf *diagnose.CFAccumulator
	if len(contended) > 0 {
		var table *profiledata.Table
		in(sp, lOpen, func() { table, err = profiledata.NewTable(objs) })
		if err != nil {
			return outcome{}, err
		}
		in(sp, lCFAcc, func() { cf = diagnose.NewCFAccumulator(table, contended, weight) })
	}
	if _, err := pass(nil, func(block []pebs.Sample) {
		in(sp, lTimeline, func() { tl.Add(block) })
		if cf != nil {
			in(sp, lCFAcc, func() { cf.Add(block) })
		}
	}); err != nil {
		return outcome{}, err
	}
	var top []string
	if cf != nil {
		in(sp, lCFAcc, func() { top = topObjects(cf.Report()) })
	}
	var buckets []diagnose.Bucket
	in(sp, lTimeline, func() { buckets = tl.Buckets() })
	return rebuiltOutcome(contended, top, n, len(buckets)), nil
}

// tracedCSV rebuilds AnalyzeTraceFile on a CSV recording: the serial
// two-pass over a streaming CSV reader.
func (b *bench) tracedCSV(sp obs.SpanHandle, rec recording) (outcome, error) {
	var bufs profiledata.Buffers
	return b.twoPass(sp, rec.objects, func(onOpen func(float64), visit func([]pebs.Sample)) (int64, error) {
		var (
			f   *os.File
			sr  *profiledata.SampleReader
			err error
		)
		in(sp, lOpen, func() {
			if f, err = os.Open(rec.csv); err != nil {
				return
			}
			sr, err = profiledata.NewSampleReaderBuffers(f, &bufs)
		})
		if f != nil {
			defer f.Close()
		}
		if err != nil {
			return 0, err
		}
		if onOpen != nil {
			onOpen(sr.Weight())
		}
		return drain(sp, lDecodeCSV, sr, nil, visit)
	})
}

// tracedWindow rebuilds AnalyzeTraceFileRange on an indexed recording:
// blocks whose time range misses the window are never read, and the two
// passes decode the rest, keeping the samples inside the window.
func (b *bench) tracedWindow(sp obs.SpanHandle, rec recording) (outcome, error) {
	var (
		it   *profiledata.IndexedTrace
		bufs profiledata.Buffers
		err  error
	)
	in(sp, lOpen, func() { it, err = profiledata.OpenIndexedTrace(rec.bin) })
	if err != nil {
		return outcome{}, err
	}
	defer it.Close()
	// Contiguous runs of the blocks the window touches.
	var runs [][2]int
	for i := 0; i < it.Blocks(); i++ {
		if e := it.Entry(i); e.MaxTime < rec.lo || e.MinTime > rec.hi {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1][1] == i {
			runs[n-1][1] = i + 1
		} else {
			runs = append(runs, [2]int{i, i + 1})
		}
	}
	window := [2]float64{rec.lo, rec.hi}
	return b.twoPass(sp, rec.objects, func(onOpen func(float64), visit func([]pebs.Sample)) (int64, error) {
		if onOpen != nil {
			onOpen(it.Weight())
		}
		var total int64
		for _, r := range runs {
			var sr *profiledata.SampleReader
			in(sp, lOpen, func() { sr, err = it.RangeReader(r[0], r[1], &bufs) })
			if err != nil {
				return total, err
			}
			n, err := drain(sp, lDecodeBin, sr, &window, visit)
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	})
}

// tracedOptimize rebuilds Tool.AutoOptimize: detection, the report's
// diagnosis and timeline, the shared baseline, then the search given that
// baseline. Its follow-up simulates the chosen placement once more without
// a cycle budget, the cost of one candidate.
func (b *bench) tracedOptimize(sp obs.SpanHandle, bc benchCase) (outcome, func() error, error) {
	bld, err := builderOf(bc.bench)
	if err != nil {
		return outcome{}, nil, err
	}
	var dn *core.Detection
	in(sp, lDetect, func() { dn, err = b.det.Detect(bld, b.machine, programConfig(bc.c)) })
	if err != nil {
		return outcome{}, nil, err
	}
	n := int64(len(dn.Samples))
	var top []string
	if dn.Detected {
		in(sp, lAnalyze, func() { top = topObjects(dn.Diagnose()) })
	}
	var buckets []diagnose.Bucket
	in(sp, lTimeline, func() { buckets = diagnose.Timeline(dn.Samples, timelineBuckets, dn.Weight) })
	out := rebuiltOutcome(dn.Contended, top, n, len(buckets))
	if !dn.Detected {
		out.fp = placementFingerprint(out.fp, "", 0)
		return out, nil, nil
	}
	var base *engine.Result
	in(sp, lBase, func() { base, err = optimize.MeasureBase(dn.Builder(), b.machine, dn.Cfg, b.ecfg) })
	if err != nil {
		return outcome{}, nil, err
	}
	var res *search.Result
	in(sp, lSearch, func() { res, err = search.FromDetection(dn, b.ecfg, search.Config{Baseline: base}) })
	if err != nil {
		return outcome{}, nil, err
	}
	sp.SetInt("candidates", int64(len(res.Outcomes)))
	sp.SetInt("explored", int64(res.Explored))
	sp.SetInt("pruned", int64(res.Pruned))
	sp.SetInt("aborted", int64(res.AbortedRuns))
	if res.Best == nil {
		out.fp = placementFingerprint(out.fp, "", 0)
		return out, nil, nil
	}
	best := res.Best.Candidate
	out.fp = placementFingerprint(out.fp, best.Key(), res.Speedup())
	out.speedup = res.Speedup()
	candidate := func() error {
		s := obs.BeginSpan(spanCandidate)
		defer s.End()
		_, err := optimize.MeasureAgainst(base, dn.Builder(), b.machine, dn.Cfg, b.ecfg, best.Transform())
		return err
	}
	return out, candidate, nil
}

// substrateLoops times fixed loops over the cache hierarchy and the access
// stream generator, one span each.
func (b *bench) substrateLoops() error {
	n := loopAccesses
	if b.opts.smoke {
		n = smokeLoopAccesses
	}
	h, err := cache.NewHierarchy(b.machine, cache.Config{})
	if err != nil {
		return err
	}
	s := obs.BeginSpan(spanCacheLoop)
	s.SetInt(attrAccesses, int64(n))
	for i := 0; i < n; i++ {
		h.Access(topology.CPUID(i&31), uint64(i)*64)
	}
	s.End()
	h.Release()

	st := &trace.Seq{Base: 0x10000000, Len: 1 << 24, Elem: 8}
	st.Reset(1)
	buf := make([]trace.Access, 256)
	s = obs.BeginSpan(spanTraceLoop)
	s.SetInt(attrAccesses, int64(n))
	for done := 0; done < n; done += len(buf) {
		if trace.Fill(st, buf) < len(buf) {
			st.Reset(uint64(done))
		}
	}
	s.End()
	return nil
}

// tracedOp is one traced operation, flattened.
type tracedOp struct {
	total float64            // seconds
	own   float64            // seconds outside every layer span
	self  map[string]float64 // seconds of each layer's self time
	n     map[string]int64   // samples each layer's spans reported
	kept  int64              // samples windowed decodes kept
	attrs map[string]any
}

func intAttr(attrs map[string]any, key string) int64 {
	v, _ := attrs[key].(int64)
	return v
}

// collect flattens the operation spans and groups the other root spans
// by name.
func collect(roots []*obs.SpanTree) ([]tracedOp, map[string][]*obs.SpanTree) {
	var ops []tracedOp
	others := map[string][]*obs.SpanTree{}
	for _, r := range roots {
		if r.Name != spanOp {
			others[r.Name] = append(others[r.Name], r)
			continue
		}
		t := tracedOp{total: r.DurationSeconds, own: r.DurationSeconds,
			self: map[string]float64{}, n: map[string]int64{}, attrs: r.Attrs}
		for _, c := range r.Children {
			t.own -= c.DurationSeconds
			t.add(c)
		}
		ops = append(ops, t)
	}
	return ops, others
}

func (t *tracedOp) add(s *obs.SpanTree) {
	self := s.DurationSeconds
	for _, c := range s.Children {
		self -= c.DurationSeconds
		t.add(c)
	}
	t.self[s.Name] += self
	t.n[s.Name] += intAttr(s.Attrs, attrSamples)
	t.kept += intAttr(s.Attrs, attrKept)
}

// perOp is the median over operations of f, skipping operations for which
// f reports no value; 0 when none has one.
func perOp(ops []tracedOp, f func(t tracedOp) (float64, bool)) float64 {
	var vs []float64
	for _, t := range ops {
		if v, ok := f(t); ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return median(vs)
}

// layerMetrics derives the per-layer metrics. A layer the workload does
// not go through reads 0.
func layerMetrics(ops []tracedOp, others map[string][]*obs.SpanTree, untracedP50 float64) map[string]metric {
	ms := map[string]metric{}
	set := func(name, unit string, v float64) { ms[name] = metric{v, unit} }
	scaled := func(layer string, scale float64) float64 {
		return perOp(ops, func(t tracedOp) (float64, bool) {
			v, ok := t.self[layer]
			return v * scale, ok
		})
	}
	// Per sample the layer itself reported, else per sample of the
	// operation's result.
	perSample := func(layer string) float64 {
		return perOp(ops, func(t tracedOp) (float64, bool) {
			v, ok := t.self[layer]
			n := t.n[layer]
			if n == 0 {
				n = intAttr(t.attrs, attrSamples)
			}
			return v / float64(n) * 1e9, ok && n > 0
		})
	}
	attr := func(key string) float64 {
		return perOp(ops, func(t tracedOp) (float64, bool) {
			_, ok := t.attrs[key]
			return float64(intAttr(t.attrs, key)), ok
		})
	}
	rootPerAccess := func(name string) float64 {
		var vs []float64
		for _, s := range others[name] {
			if n := intAttr(s.Attrs, attrAccesses); n > 0 {
				vs = append(vs, s.DurationSeconds/float64(n)*1e9)
			}
		}
		if len(vs) == 0 {
			return 0
		}
		return median(vs)
	}

	set("program.build_ms", "ms", scaled(lBuild, 1e3))
	set("engine.run_ms", "ms", scaled(lEngine, 1e3))
	set("sim_maccesses_per_s", "Maccesses/s", perOp(ops, func(t tracedOp) (float64, bool) {
		var sim float64
		for _, l := range simLayers {
			sim += t.self[l]
		}
		acc := intAttr(t.attrs, attrAccesses)
		return float64(acc) / sim / 1e6, acc > 0 && sim > 0
	}))
	set("engine.accesses", "count", perOp(ops, func(t tracedOp) (float64, bool) {
		acc := intAttr(t.attrs, attrAccesses)
		return float64(acc), acc > 0
	}))
	for _, l := range hitLevels {
		l := l
		set("engine.hit_ratio."+l, "ratio", perOp(ops, func(t tracedOp) (float64, bool) {
			var all int64
			for _, m := range hitLevels {
				all += intAttr(t.attrs, attrHitPrefix+m)
			}
			return float64(intAttr(t.attrs, attrHitPrefix+l)) / float64(all), all > 0
		}))
	}
	set("cache.ns_per_access", "ns", rootPerAccess(spanCacheLoop))
	set("trace.ns_per_access", "ns", rootPerAccess(spanTraceLoop))
	set("pebs.samples_per_op", "count", attr(attrSamples))
	set("profiledata.open_ms", "ms", scaled(lOpen, 1e3))
	set("profiledata.decode_ns_per_sample.binary", "ns", perSample(lDecodeBin))
	set("profiledata.decode_ns_per_sample.csv", "ns", perSample(lDecodeCSV))
	set("profiledata.window_kept_ratio", "ratio", perOp(ops, func(t tracedOp) (float64, bool) {
		dec := t.n[lDecodeBin]
		return float64(t.kept) / float64(dec), t.kept > 0 && dec > 0
	}))
	set("features.ns_per_sample", "ns", perSample(lFeatures))
	set("dtree.predict_us", "us", scaled(lPredict, 1e6))
	set("diagnose.analyze_ms", "ms", scaled(lAnalyze, 1e3))
	set("diagnose.densecf_ns_per_sample", "ns", perSample(lDenseCF))
	set("diagnose.cfacc_ns_per_sample", "ns", perSample(lCFAcc))
	set("diagnose.timeline_ns_per_sample", "ns", perSample(lTimeline))
	set("search.run_ms", "ms", scaled(lSearch, 1e3))
	set("optimize.base_ms", "ms", scaled(lBase, 1e3))
	var cand []float64
	for _, s := range others[spanCandidate] {
		cand = append(cand, s.DurationSeconds*1e3)
	}
	if len(cand) > 0 {
		set("optimize.candidate_ms", "ms", median(cand))
	} else {
		set("optimize.candidate_ms", "ms", 0)
	}
	for _, k := range []string{"candidates", "explored", "pruned", "aborted"} {
		set("search."+k, "count", attr(k))
	}
	set("search.completed_ratio", "ratio", perOp(ops, func(t tracedOp) (float64, bool) {
		ex := intAttr(t.attrs, "explored")
		return float64(ex-intAttr(t.attrs, "aborted")) / float64(ex), ex > 0
	}))

	var totals []float64
	var sumTotal, sumOwn float64
	sumSelf := map[string]float64{}
	for _, t := range ops {
		totals = append(totals, t.total*1e3)
		sumTotal += t.total
		sumOwn += t.own
		for l, v := range t.self {
			sumSelf[l] += v
		}
	}
	overhead := 0.0
	if len(totals) > 0 && untracedP50 > 0 {
		overhead = (median(totals)/untracedP50 - 1) * 100
	}
	set("obs.trace_overhead_pct", "%", overhead)
	share := func(v float64) float64 {
		if sumTotal == 0 {
			return 0
		}
		return v / sumTotal * 100
	}
	for _, l := range layerNames {
		set("share_pct."+l, "%", share(sumSelf[l]))
	}
	set("share_pct.unaccounted", "%", share(sumOwn))
	return ms
}

// perLayer times the substrate loops, derives the per-layer metrics from
// the traced phase's span tree, exports the tree and prints the breakdown.
func (b *bench) perLayer(w workload, plain, traced *phase, out io.Writer) (map[string]metric, error) {
	loops := obs.StartTracing()
	err := b.substrateLoops()
	obs.StopTracing()
	if err != nil {
		return nil, err
	}
	roots := append(traced.tracer.Tree(), loops.Tree()...)
	ops, others := collect(roots)
	untracedP50 := median(plain.latMS)
	ms := layerMetrics(ops, others, untracedP50)

	path := b.opts.traceOut
	if path == "" {
		path = filepath.Join(b.opts.workDir, "spans-"+w.name+".json")
	} else if b.opts.multi {
		ext := filepath.Ext(path)
		path = strings.TrimSuffix(path, ext) + "." + w.name + ext
	}
	if err := b.writeSpans(path, w.name, len(plain.roundRates), len(traced.roundRates), roots); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "traced  %d untraced rounds then %d traced rounds (%d operations); untraced p50 %.4g ms; span tree in %s\n",
		len(plain.roundRates), len(traced.roundRates), len(ops), untracedP50, path)
	printMetrics(out, ms, nil)
	return ms, nil
}

// spanFile is the exported trace: the span forest stamped with where and
// how it was measured.
type spanFile struct {
	Host           hostInfo        `json:"host"`
	Workload       string          `json:"workload"`
	Seed           uint64          `json:"seed"`
	UntracedRounds int             `json:"untraced_rounds"`
	TracedRounds   int             `json:"traced_rounds"`
	Spans          []*obs.SpanTree `json:"spans"`
}

func (b *bench) writeSpans(path, workload string, untraced, traced int, roots []*obs.SpanTree) error {
	data, err := json.Marshal(spanFile{
		Host: b.host, Workload: workload, Seed: b.opts.seed,
		UntracedRounds: untraced, TracedRounds: traced, Spans: roots,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
