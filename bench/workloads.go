package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"drbw"
	"drbw/internal/obs"
	"drbw/internal/profiledata"
)

// workload is one set of inputs and the operation list run over them.
type workload struct {
	name string
	why  string
	// inputs generates the workload's inputs under dir. Its median time
	// over setupReps repetitions is the input share of setup_s.
	inputs func(b *bench, dir string) (*inputs, error)
	// ops builds one round's operations over the inputs, computing the
	// reference results their checks compare against. It is not timed.
	ops func(b *bench, in *inputs) ([]op, error)
}

// inputs are what a workload's set-up produced.
type inputs struct {
	cases []benchCase
	recs  []recording // offline workloads: one per case
}

// benchCase is one benchmark case.
type benchCase struct {
	bench string
	c     drbw.Case
}

func (bc benchCase) String() string {
	s := fmt.Sprintf("%s T%d-N%d", bc.bench, bc.c.Threads, bc.c.Nodes)
	if bc.c.Input != "" {
		s += "/" + bc.c.Input
	}
	return s
}

// recording is one case's recording on disk.
type recording struct {
	bin, csv, objects string
	// lo and hi bound the middle half of the recording's time range, the
	// window offline-ingest queries.
	lo, hi float64
}

func allWorkloads() []workload {
	return []workload{
		{
			name:   "detect",
			why:    "live profiling: Tool.Analyze simulates and classifies 46 cases mixing cache-resident and DRAM-streaming working sets and contended and clean verdicts",
			inputs: func(b *bench, _ string) (*inputs, error) { return &inputs{cases: b.detectCases()}, nil },
			ops:    (*bench).detectOps,
		},
		{
			name:   "offline-indexed",
			why:    "offline analysis of indexed binary recordings of the detect cases: decode, features, dense CF and timeline in one pass, no simulation",
			inputs: func(b *bench, dir string) (*inputs, error) { return b.record(dir, false) },
			ops:    (*bench).indexedOps,
		},
		{
			name:   "offline-ingest",
			why:    "the same recordings through the fallback paths: each operation analyzes a case's CSV copy (CSV parse, serial two-pass) and the middle half of its binary copy (windowed two-pass)",
			inputs: func(b *bench, dir string) (*inputs, error) { return b.record(dir, true) },
			ops:    (*bench).ingestOps,
		},
		{
			name:   "optimize",
			why:    "Tool.AutoOptimize on the four contended cases: a 4-candidate and a 64-candidate placement search with budget aborts",
			inputs: func(b *bench, _ string) (*inputs, error) { return &inputs{cases: b.optimizeCases()}, nil },
			ops:    (*bench).optimizeOps,
		},
	}
}

// smokeCases are the detect cases a -smoke run keeps: one contended, one
// clean.
var smokeCases = map[string]bool{"Streamcluster T32-N4": true, "EP T16-N2": true}

// caseSeed derives case i's seed from the run's seed.
func caseSeed(seed uint64, i int) uint64 { return seed*1009 + uint64(i)*17 }

// detectCases are the 23 benchmarks × {T32-N4, T16-N2} at each benchmark's
// smallest input: 46 cases, of which AMG2006 and Streamcluster are
// contended in both configurations.
func (b *bench) detectCases() []benchCase {
	var out []benchCase
	for _, tn := range [][2]int{{32, 4}, {16, 2}} {
		for _, name := range drbw.Benchmarks() {
			bc := benchCase{bench: name, c: drbw.Case{Threads: tn[0], Nodes: tn[1]}}
			bc.c.Seed = caseSeed(b.opts.seed, len(out))
			if !b.opts.smoke || smokeCases[bc.String()] {
				out = append(out, bc)
			}
		}
	}
	return out
}

// optimizeCases are the four contended cases; -smoke keeps the two
// Streamcluster ones.
func (b *bench) optimizeCases() []benchCase {
	out := []benchCase{
		{bench: "Streamcluster", c: drbw.Case{Input: "native", Threads: 32, Nodes: 4}},
		{bench: "Streamcluster", c: drbw.Case{Threads: 16, Nodes: 2}},
		{bench: "AMG2006", c: drbw.Case{Threads: 32, Nodes: 4}},
		{bench: "AMG2006", c: drbw.Case{Threads: 16, Nodes: 2}},
	}
	if b.opts.smoke {
		out = out[:2]
	}
	for i := range out {
		out[i].c.Seed = caseSeed(b.opts.seed, i)
	}
	return out
}

// fingerprint identifies a report by what a user acts on: verdict,
// contended channels, the top three CF objects, and the sample count and
// timeline length behind them.
func fingerprint(detected bool, channels, top []string, samples int64, buckets int) string {
	if len(top) > 3 {
		top = top[:3]
	}
	return fmt.Sprintf("detected=%v channels=[%s] top=[%s] samples=%d buckets=%d",
		detected, strings.Join(channels, " "), strings.Join(top, " "), samples, buckets)
}

func reportOutcome(rep *drbw.Report) outcome {
	return outcome{
		fp:      fingerprint(rep.Detected, rep.Channels, rep.TopObjects(3), rep.Samples, len(rep.Timeline)),
		samples: rep.Samples,
	}
}

// streamclusterCheck pins the paper's headline diagnosis: Streamcluster's
// contention comes from its block array.
func streamclusterCheck(out outcome) error {
	if !strings.HasPrefix(out.fp, "detected=true ") || !strings.Contains(out.fp, " top=[block") {
		return errors.New("Streamcluster T32-N4 must be flagged with block as its top object")
	}
	return nil
}

func (b *bench) detectOps(in *inputs) ([]op, error) {
	var ops []op
	for _, bc := range in.cases {
		bc := bc
		o := op{
			label: bc.String(),
			run: func() (outcome, error) {
				rep, err := b.tool.Analyze(bc.bench, bc.c)
				if err != nil {
					return outcome{}, err
				}
				return reportOutcome(rep), nil
			},
			traced: func(sp obs.SpanHandle) (outcome, func() error, error) {
				out, err := b.tracedDetect(sp, bc)
				return out, nil, err
			},
		}
		if bc.String() == "Streamcluster T32-N4" {
			o.check = streamclusterCheck
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// record profiles every detect case with Tool.Record and saves it as an
// indexed binary recording, plus a CSV copy when csv is set. The files are
// flushed to disk before it returns, so their write-back never overlaps
// the timed phase.
func (b *bench) record(dir string, csv bool) (*inputs, error) {
	in := &inputs{cases: b.detectCases()}
	var written []string
	for i, bc := range in.cases {
		td, err := b.tool.Record(bc.bench, bc.c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bc, err)
		}
		base := filepath.Join(dir, strconv.Itoa(i))
		rec := recording{bin: base + ".samples.bin", objects: base + ".objects.csv"}
		if err := td.SaveAs(rec.bin, rec.objects, drbw.FormatBinary); err != nil {
			return nil, err
		}
		written = append(written, rec.bin, rec.objects)
		if csv {
			rec.csv = base + ".samples.csv"
			if err := td.SaveAs(rec.csv, rec.objects, drbw.FormatCSV); err != nil {
				return nil, err
			}
			written = append(written, rec.csv)
		}
		in.recs = append(in.recs, rec)
	}
	for _, path := range written {
		if err := syncFile(path); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func (b *bench) indexedOps(in *inputs) ([]op, error) {
	var ops []op
	for i, bc := range in.cases {
		rec := in.recs[i]
		// The reference is the live pipeline's report for the same case.
		live, err := b.tool.Analyze(bc.bench, bc.c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bc, err)
		}
		ops = append(ops, op{
			label: bc.String() + " indexed",
			want:  reportOutcome(live).fp,
			run: func() (outcome, error) {
				rep, err := b.tool.AnalyzeTraceFile(rec.bin, rec.objects)
				if err != nil {
					return outcome{}, err
				}
				return reportOutcome(rep), nil
			},
			traced: func(sp obs.SpanHandle) (outcome, func() error, error) {
				out, err := b.tracedIndexed(sp, rec)
				return out, nil, err
			},
		})
	}
	return ops, nil
}

func (b *bench) ingestOps(in *inputs) ([]op, error) {
	var ops []op
	for i, bc := range in.cases {
		rec := in.recs[i]
		it, err := profiledata.OpenIndexedTrace(rec.bin)
		if err != nil {
			return nil, err
		}
		minT, maxT, ok := it.TimeBounds()
		it.Close()
		if !ok {
			return nil, fmt.Errorf("%s: empty recording", bc)
		}
		quarter := (maxT - minT) / 4
		rec.lo, rec.hi = minT+quarter, maxT-quarter

		// The CSV copy must analyze to the binary report, and so must a
		// window spanning the whole recording.
		full, err := b.tool.AnalyzeTraceFile(rec.bin, rec.objects)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bc, err)
		}
		span, err := b.tool.AnalyzeTraceFileRange(rec.bin, rec.objects, minT, maxT)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bc, err)
		}
		fullFP := reportOutcome(full).fp
		var spanErr error
		if s := reportOutcome(span).fp; s != fullFP {
			spanErr = fmt.Errorf("full-span window report %s differs from the whole-file report %s", s, fullFP)
		}
		ops = append(ops, op{
			label: bc.String() + " ingest",
			check: func(out outcome) error {
				if spanErr != nil {
					return spanErr
				}
				if !strings.HasPrefix(out.fp, fullFP+windowSep) {
					return fmt.Errorf("CSV report %s differs from the binary report %s", out.fp, fullFP)
				}
				return nil
			},
			run: func() (outcome, error) {
				csv, err := b.tool.AnalyzeTraceFile(rec.csv, rec.objects)
				if err != nil {
					return outcome{}, err
				}
				win, err := b.tool.AnalyzeTraceFileRange(rec.bin, rec.objects, rec.lo, rec.hi)
				if err != nil {
					return outcome{}, err
				}
				return ingestOutcome(reportOutcome(csv), reportOutcome(win)), nil
			},
			traced: func(sp obs.SpanHandle) (outcome, func() error, error) {
				csv, err := b.tracedCSV(sp, rec)
				if err != nil {
					return outcome{}, nil, err
				}
				win, err := b.tracedWindow(sp, rec)
				return ingestOutcome(csv, win), nil, err
			},
		})
	}
	return ops, nil
}

// windowSep joins an ingest operation's two fingerprints.
const windowSep = " | window "

// ingestOutcome is one ingest operation's result: the CSV copy's report
// and the window's.
func ingestOutcome(csv, win outcome) outcome {
	return outcome{fp: csv.fp + windowSep + win.fp, samples: csv.samples + win.samples}
}

// placementFingerprint extends a report fingerprint with the search's
// choice.
func placementFingerprint(fp, placement string, speedup float64) string {
	return fmt.Sprintf("%s placement=%s speedup=%s", fp, placement, strconv.FormatFloat(speedup, 'g', -1, 64))
}

func (b *bench) optimizeOps(in *inputs) ([]op, error) {
	var ops []op
	for _, bc := range in.cases {
		bc := bc
		ops = append(ops, op{
			label: bc.String() + " optimize",
			check: func(out outcome) error {
				if out.speedup <= 0 {
					return errors.New("no placement chosen for a contended case")
				}
				if bc.bench == "Streamcluster" && !strings.Contains(out.fp, " placement=block=replicate ") {
					return errors.New("Streamcluster must choose block=replicate")
				}
				return nil
			},
			run: func() (outcome, error) {
				o, err := b.tool.AutoOptimize(bc.bench, bc.c, drbw.SearchOptions{})
				if err != nil {
					return outcome{}, err
				}
				out := reportOutcome(o.Report)
				out.fp = placementFingerprint(out.fp, o.Placement, o.Speedup)
				out.speedup = o.Speedup
				return out, nil
			},
			traced: func(sp obs.SpanHandle) (outcome, func() error, error) { return b.tracedOptimize(sp, bc) },
		})
	}
	return ops, nil
}
