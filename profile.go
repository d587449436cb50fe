package drbw

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/core"
	"drbw/internal/obs"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
	"drbw/internal/topology"
)

// SampleRecord is one recorded address sample — the public face of a PEBS
// sample, with node resolution already applied (the collector resolves
// source and home while the process is alive).
type SampleRecord struct {
	Time     float64 // whole cycles since run start, at most 2^53
	CPU      int
	Thread   int
	Addr     uint64
	Level    string  // "L1", "L2", "L3", "LFB" or "MEM"
	Latency  float64 // whole cycles, below 2^32
	Write    bool
	SrcNode  int
	HomeNode int
}

// ObjectRecord is one entry of the recorded allocation range table.
type ObjectRecord struct {
	ID   int
	Name string
	Func string
	File string
	Line int
	Base uint64
	Size uint64
}

// TraceData is a complete recorded profile: samples plus the allocation
// table, ready to save, reload and analyze offline.
type TraceData struct {
	Bench   string
	Config  string
	Samples []SampleRecord
	Objects []ObjectRecord
	// Weight scales kept samples to true counts when the collector bounded
	// its memory. 1 when everything was kept.
	Weight float64
}

func toRecord(s pebs.Sample) SampleRecord {
	return SampleRecord{
		Time: s.Time, CPU: int(s.CPU), Thread: s.Thread, Addr: s.Addr,
		Level: s.Level.String(), Latency: s.Latency, Write: s.Write,
		SrcNode: int(s.SrcNode), HomeNode: int(s.HomeNode),
	}
}

func fromRecord(r SampleRecord) (pebs.Sample, error) {
	var lvl cache.Level
	switch r.Level {
	case "L1":
		lvl = cache.L1
	case "L2":
		lvl = cache.L2
	case "L3":
		lvl = cache.L3
	case "LFB":
		lvl = cache.LFB
	case "MEM":
		lvl = cache.MEM
	default:
		return pebs.Sample{}, fmt.Errorf("drbw: unknown memory level %q", r.Level)
	}
	return pebs.Sample{
		Time: r.Time, CPU: topology.CPUID(r.CPU), Thread: r.Thread, Addr: r.Addr,
		Level: lvl, Latency: r.Latency, Write: r.Write,
		SrcNode: topology.NodeID(r.SrcNode), HomeNode: topology.NodeID(r.HomeNode),
	}, nil
}

// samples converts the recording's sample records, checking every memory
// level and, with pebs.Check, that every time and latency is a whole cycle
// count. It returns them with the collector weight: 1 when unset or not
// positive, and an error when NaN or infinite.
func (td *TraceData) samples() ([]pebs.Sample, float64, error) {
	if math.IsNaN(td.Weight) || math.IsInf(td.Weight, 0) {
		return nil, 0, fmt.Errorf("drbw: recording weight %v is not finite", td.Weight)
	}
	samples := make([]pebs.Sample, 0, len(td.Samples))
	for i, r := range td.Samples {
		s, err := fromRecord(r)
		if err != nil {
			return nil, 0, err
		}
		if err := pebs.Check(&s); err != nil {
			return nil, 0, fmt.Errorf("drbw: sample %d: %w", i, err)
		}
		samples = append(samples, s)
	}
	weight := td.Weight
	if weight <= 0 {
		weight = 1
	}
	return samples, weight, nil
}

// Record profiles one case of a built-in benchmark and returns the raw
// recording instead of an analysis — the collection half of the offline
// workflow.
func (t *Tool) Record(bench string, c Case) (*TraceData, error) {
	b, err := t.builder(bench)
	if err != nil {
		return nil, err
	}
	// The same profiling run as Detector.Detect, so a recording reproduces
	// exactly the samples the live pipeline would see.
	p, samples, weight, err := core.Profile(b, t.machine, c.config(), t.detector.Ecfg, t.detector.Ccfg)
	if err != nil {
		return nil, err
	}
	// Profiling hands samples over in emission order; a recording is the
	// one consumer that needs time order (index block time ranges and
	// window queries rely on it), so it sorts here, once.
	sort.Slice(samples, func(i, j int) bool { return samples[i].Time < samples[j].Time })
	td := &TraceData{
		Bench:   bench,
		Config:  c.config().String(),
		Weight:  weight,
		Samples: make([]SampleRecord, len(samples)),
	}
	for i, s := range samples {
		td.Samples[i] = toRecord(s)
	}
	for _, o := range p.Heap.Live() {
		td.Objects = append(td.Objects, ObjectRecord{
			ID: int(o.ID), Name: o.Name,
			Func: o.Site.Func, File: o.Site.File, Line: o.Site.Line,
			Base: o.Base, Size: o.Size,
		})
	}
	return td, nil
}

// Save writes the recording as two CSV files (see internal/profiledata for
// the exact format); it is SaveAs with FormatCSV. Every record is
// validated before any file is created, and a file that fails mid-write is
// removed, so a bad recording never leaves a truncated CSV behind.
func (td *TraceData) Save(samplesPath, objectsPath string) error {
	return td.SaveAs(samplesPath, objectsPath, FormatCSV)
}

// writeFile creates path, runs write, and removes the file again if
// anything fails, so readers never see a partial CSV.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("drbw: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return fmt.Errorf("drbw: %w", err)
	}
	return nil
}

func (td *TraceData) internalObjects() []alloc.Object {
	var out []alloc.Object
	for _, o := range td.Objects {
		out = append(out, alloc.Object{
			ID: alloc.ObjectID(o.ID), Name: o.Name,
			Site: alloc.Site{Func: o.Func, File: o.File, Line: o.Line},
			Base: o.Base, Size: o.Size,
		})
	}
	return out
}

// LoadTrace reads a recording saved by TraceData.Save (or produced by any
// other tool emitting the same CSV schema). The collector weight persisted
// in the samples file is restored; weightless files from older versions of
// the format (or foreign tools) load with weight 1.
func LoadTrace(samplesPath, objectsPath string) (*TraceData, error) {
	sf, err := os.Open(samplesPath)
	if err != nil {
		return nil, fmt.Errorf("drbw: %w", err)
	}
	defer sf.Close()
	samples, weight, err := profiledata.ReadSamples(sf)
	if err != nil {
		return nil, err
	}
	of, err := os.Open(objectsPath)
	if err != nil {
		return nil, fmt.Errorf("drbw: %w", err)
	}
	defer of.Close()
	objects, err := profiledata.ReadObjects(of)
	if err != nil {
		return nil, err
	}
	td := &TraceData{Weight: weight}
	for _, s := range samples {
		td.Samples = append(td.Samples, toRecord(s))
	}
	for _, o := range objects {
		td.Objects = append(td.Objects, ObjectRecord{
			ID: int(o.ID), Name: o.Name,
			Func: o.Site.Func, File: o.Site.File, Line: o.Site.Line,
			Base: o.Base, Size: o.Size,
		})
	}
	return td, nil
}

// AnalyzeTrace runs the classification and diagnosis pipeline on a
// recording: per-channel feature extraction, the trained tree, and CF
// attribution through the recorded allocation table. The recording must
// come from (or describe) the machine the tool was trained for. It takes
// the same fused pass as AnalyzeTraceFile, so a recording analyzes
// identically in memory and on disk.
func (t *Tool) AnalyzeTrace(td *TraceData) (*Report, error) {
	return t.analyzeTrace(td, t.newScratch())
}

// analyzeTrace is AnalyzeTrace on a caller's scratch: the converted
// samples form one job, and the fused pass runs inline.
func (t *Tool) analyzeTrace(td *TraceData, sc *traceScratch) (*Report, error) {
	samples, weight, err := td.samples()
	if err != nil {
		return nil, err
	}
	p := &tracePlan{jobs: []traceJob{sliceJob(samples, weight)}, weight: weight}
	rep, err := t.fusedPass(p, td.internalObjects(), sc, obs.SpanHandle{})
	if err != nil {
		return nil, err
	}
	rep.Bench, rep.Config = td.Bench, td.Config
	return rep, nil
}
