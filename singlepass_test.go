package drbw_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"drbw"
	"drbw/internal/obs"
	"drbw/internal/profiledata"
)

// recordPlans installs the planning hook as a recorder of whether each
// plan's pass is checked against index-footer bounds, returning the
// record and a cleanup the test must call.
func recordPlans() (*[]bool, func()) {
	plans := new([]bool)
	restore := drbw.SetTestHookPlanned(func(footer bool) { *plans = append(*plans, footer) })
	return plans, restore
}

// recordingVariant is one on-disk encoding of the matrix recording.
type recordingVariant struct {
	name   string
	path   string
	footer bool // analyzed whole, its pass is checked against the index footer
}

// matrixRecording records the equivalence matrix's trace and saves it in
// every encoding the fused pass plans differently, returning the trace as
// loaded from CSV, its objects path and the variants. CSV goes first so
// every variant holds identical grid-quantized samples and the reference
// report carries no Record-only metadata.
func matrixRecording(t *testing.T, tl *drbw.Tool) (*drbw.TraceData, string, []recordingVariant) {
	t.Helper()
	_, csvPath, oPath := recordTo(t, tl, 73, drbw.FormatCSV)
	td, err := drbw.LoadTrace(csvPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	indexed := filepath.Join(dir, "samples.bin")
	if err := td.SaveAs(indexed, filepath.Join(dir, "o.csv"), drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}
	reblocked := reblock(t, indexed, 64)
	return td, oPath, []recordingVariant{
		{"indexed", indexed, true},
		{"reblocked", reblocked, true},
		{"csv", csvPath, false},
	}
}

// TestFusedPassMatrix is the one-path equivalence matrix: for every
// recording variant and worker count, the file analysis must be
// bit-identical to the reference analysis (over the filtered slice for
// windows), and exactly the unwindowed checksummed variants are checked
// against their footers.
func TestFusedPassMatrix(t *testing.T) {
	tl := sharedTool(t)
	td, oPath, variants := matrixRecording(t, tl)
	want, err := tl.AnalyzeTraceRef(td)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := timeWindow(td)
	wantWindow, err := tl.AnalyzeTraceRef(windowed(td, lo, hi))
	if err != nil {
		t.Fatal(err)
	}

	type matrixCase struct {
		name     string
		path     string
		windowed bool
		footer   bool
	}
	var cases []matrixCase
	for _, v := range variants {
		cases = append(cases, matrixCase{v.name, v.path, false, v.footer})
	}
	cases = append(cases,
		matrixCase{"indexed-window", variants[0].path, true, false},
		matrixCase{"csv-window", variants[2].path, true, false})
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		setProcs(t, workers)
		for _, tc := range cases {
			plans, restore := recordPlans()
			var got *drbw.Report
			if tc.windowed {
				got, err = tl.AnalyzeTraceFileRange(tc.path, oPath, lo, hi)
			} else {
				got, err = tl.AnalyzeTraceFile(tc.path, oPath)
			}
			restore()
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, tc.name, err)
			}
			if len(*plans) != 1 || (*plans)[0] != tc.footer {
				t.Fatalf("workers=%d %s: plans %v, want one with footer bounds=%v", workers, tc.name, *plans, tc.footer)
			}
			wantRep := want
			if tc.windowed {
				wantRep = wantWindow
			}
			if !reflect.DeepEqual(got, wantRep) {
				t.Fatalf("workers=%d %s: report differs from the reference analysis\n got %+v\nwant %+v", workers, tc.name, got, wantRep)
			}
		}
	}
}

// TestAnalyzeTraceMatchesReference pins the in-memory fused pass to the
// reference analysis: the same report, or the same error, for every
// recording below, at pool widths 1 and 2.
func TestAnalyzeTraceMatchesReference(t *testing.T) {
	tl := sharedTool(t)
	td, oPath, variants := matrixRecording(t, tl)
	type input struct {
		name    string
		td      *drbw.TraceData
		wantErr string // non-empty: the reference must fail with this
	}
	var inputs []input
	for _, v := range variants {
		loaded, err := drbw.LoadTrace(v.path, oPath)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name: v.name, td: loaded})
	}
	lo, hi := timeWindow(td)
	inputs = append(inputs, input{name: "window", td: windowed(td, lo, hi)})

	nan := *td
	nan.Samples = append([]drbw.SampleRecord(nil), td.Samples...)
	nan.Samples[len(nan.Samples)/2].Time = math.NaN()
	inputs = append(inputs, input{name: "nan-time", td: &nan, wantErr: "time NaN is not a whole cycle count"})

	// A raw recording whose collector overflowed: weight > 1, with the
	// Bench and Config labels only Record sets.
	restore := drbw.SetCollectorMaxKept(tl, 200)
	heavy, err := tl.Record("Streamcluster", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 80})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Weight <= 1 || heavy.Bench == "" {
		t.Fatalf("recording has weight %v and bench %q, want an overflowed, labeled one", heavy.Weight, heavy.Bench)
	}
	inputs = append(inputs, input{name: "weighted", td: heavy})

	inputs = append(inputs,
		input{"empty", &drbw.TraceData{}, "no samples"},
		input{"bad level", &drbw.TraceData{Samples: []drbw.SampleRecord{{Level: "L9"}}}, "unknown memory level"},
		input{"node out of range", &drbw.TraceData{Samples: []drbw.SampleRecord{{Level: "MEM", SrcNode: 9}}}, "outside the 4-node machine"})
	// An overlapping objects table is an error only once contention is
	// flagged.
	for _, rc := range []struct {
		bench   string
		wantErr string
	}{{"Swaptions", ""}, {"Streamcluster", "overlap"}} {
		rec, err := tl.Record(rc.bench, drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 79})
		if err != nil {
			t.Fatal(err)
		}
		first := rec.Objects[0]
		rec.Objects = append(rec.Objects, drbw.ObjectRecord{ID: 1 << 20, Name: "overlap", Base: first.Base, Size: first.Size})
		inputs = append(inputs, input{"overlap " + rc.bench, rec, rc.wantErr})
	}

	for _, in := range inputs {
		want, wantErr := tl.AnalyzeTraceRef(in.td)
		if in.wantErr == "" && wantErr != nil {
			t.Fatalf("%s: reference failed: %v", in.name, wantErr)
		}
		if in.wantErr != "" && (wantErr == nil || !strings.Contains(wantErr.Error(), in.wantErr)) {
			t.Fatalf("%s: reference error = %v, want one containing %q", in.name, wantErr, in.wantErr)
		}
		for _, workers := range []int{1, 2} {
			setProcs(t, workers)
			got, err := tl.AnalyzeTrace(in.td)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("workers=%d %s: error = %v, want %v", workers, in.name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d %s: report differs from the reference analysis\n got %+v\nwant %+v", workers, in.name, got, want)
			}
		}
	}
}

// TestOneReadPerRecording pins the single read: with the tracer on and
// two pool workers, every plan opens exactly one job span per job — no
// input is streamed once to learn its bounds and again to analyze it. The
// CSV recording is split, and its jobs' byte ranges tile its data rows,
// from the header's end to EOF, with no gap or overlap.
func TestOneReadPerRecording(t *testing.T) {
	tl := sharedTool(t)
	_, csvPath, oPath := recordTo(t, tl, 77, drbw.FormatCSV)
	td, err := drbw.LoadTrace(csvPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	indexed := filepath.Join(t.TempDir(), "samples.bin")
	if err := td.SaveAs(indexed, filepath.Join(t.TempDir(), "o.csv"), drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}
	lo, hi := timeWindow(td)
	inputs := []struct {
		name   string
		path   string
		window bool
	}{
		{"csv", csvPath, false},
		{"indexed-window", reblock(t, indexed, 64), true},
	}

	setProcs(t, 2)
	for _, in := range inputs {
		obs.StartTracing()
		if in.window {
			_, err = tl.AnalyzeTraceFileRange(in.path, oPath, lo, hi)
		} else {
			_, err = tl.AnalyzeTraceFile(in.path, oPath)
		}
		tr := obs.StopTracing()
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		var roots []*obs.SpanTree
		for _, root := range tr.Tree() {
			if root.Name == "analyze.trace_file" {
				roots = append(roots, root)
			}
		}
		if len(roots) != 1 {
			t.Fatalf("%s: %d analysis spans, want 1", in.name, len(roots))
		}
		spans := map[int64]int{}
		ranges := map[int64][2]int64{}
		for _, c := range roots[0].Children {
			if c.Name == "case" {
				i := c.Attrs["index"].(int64)
				spans[i]++
				ranges[i] = [2]int64{c.Attrs["from"].(int64), c.Attrs["to"].(int64)}
			}
		}
		if len(spans) == 0 {
			t.Fatalf("%s: no job spans", in.name)
		}
		for i := int64(0); i < int64(len(spans)); i++ {
			if n := spans[i]; n != 1 {
				t.Fatalf("%s: job %d has %d spans, want exactly 1 (jobs %v)", in.name, i, n, spans)
			}
		}
		if in.name != "csv" {
			continue
		}
		data, err := os.ReadFile(in.path)
		if err != nil {
			t.Fatal(err)
		}
		h, err := profiledata.ReadHeader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if len(ranges) < 2 {
			t.Fatalf("csv: %d jobs, want the recording split", len(ranges))
		}
		at := h.Data.Offset
		for i := int64(0); i < int64(len(ranges)); i++ {
			if r := ranges[i]; r[0] != at || r[1] <= r[0] {
				t.Fatalf("csv: job %d covers [%d, %d), want a range from %d (jobs %v)", i, r[0], r[1], at, ranges)
			}
			at = ranges[i][1]
		}
		if at != int64(len(data)) {
			t.Fatalf("csv: jobs end at %d, want EOF at %d", at, len(data))
		}
	}
}

// timeWindow picks a [lo, hi] window spanning the middle half of td's
// samples.
func timeWindow(td *drbw.TraceData) (lo, hi float64) {
	minT, maxT := td.Samples[0].Time, td.Samples[0].Time
	for _, s := range td.Samples {
		if s.Time < minT {
			minT = s.Time
		}
		if s.Time > maxT {
			maxT = s.Time
		}
	}
	span := maxT - minT
	return minT + span/4, maxT - span/4
}

// windowed returns td with every sample outside [lo, hi] dropped.
func windowed(td *drbw.TraceData, lo, hi float64) *drbw.TraceData {
	out := &drbw.TraceData{Weight: td.Weight, Objects: td.Objects}
	for _, s := range td.Samples {
		if s.Time >= lo && s.Time <= hi {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// TestBinaryWithoutValidIndexFails: a binary recording whose index footer
// is missing or damaged, or whose header flags byte is not zero, fails its
// analysis with an error naming the file instead of being read another
// way; as a later shard it fails as its own job, so a shard before it that
// fails while it is read still reports its error first.
func TestBinaryWithoutValidIndexFails(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, oPath := recordTo(t, tl, 76, drbw.FormatBinary)
	data, err := os.ReadFile(sPath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := profiledata.ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, mutate func([]byte) []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, mutate(bytes.Clone(data)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const noIndex = "has no valid block index"
	for _, tc := range []struct {
		name, want string
		mutate     func([]byte) []byte
	}{
		{"footerless", noIndex, func(b []byte) []byte { return b[:idx.DataEnd+1] }},
		{"retired footer magic", noIndex, func(b []byte) []byte {
			copy(b[len(b)-len("DRBWIDX2"):], "DRBWIDX2")
			return b
		}},
		{"damaged footer", noIndex, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-16:], 1<<62) // the footer's payload length
			return b
		}},
		{"flags", "binary header flags 0x1, want 0", func(b []byte) []byte {
			b[len("DRBWPD4\n")+1] = 1
			return b
		}},
	} {
		path := write(tc.name+".bin", tc.mutate)
		for _, workers := range []int{1, 2} {
			setProcs(t, workers)
			_, err := tl.AnalyzeTraceFile(path, oPath)
			if err == nil || !strings.Contains(err.Error(), tc.want) || tc.want == noIndex && !strings.Contains(err.Error(), path) {
				t.Fatalf("%s, workers=%d: error = %v, want one containing %q", tc.name, workers, err, tc.want)
			}
		}
	}

	// Shard 1 fails the checksum of its first block when read; shard 2 is
	// footerless.
	corrupt := write("corrupt.bin", func(b []byte) []byte {
		end := idx.DataEnd
		if len(idx.Entries) > 1 {
			end = idx.Entries[1].Offset
		}
		b[(idx.Entries[0].Offset+end)/2] ^= 0x40
		return b
	})
	footerless := filepath.Join(dir, "footerless.bin")
	for _, workers := range []int{1, 2} {
		setProcs(t, workers)
		_, err := tl.AnalyzeTraceShards([]string{sPath, corrupt, footerless}, oPath)
		if err == nil || !strings.Contains(err.Error(), "index checksum") {
			t.Fatalf("workers=%d: error = %v, want shard 1's checksum failure", workers, err)
		}
	}
}

// TestSinglePassShardsMatchWhole: indexed shards take their bounds from
// their footers, and the merged report is bit-identical to the whole-trace
// reference analysis at any worker count.
func TestSinglePassShardsMatchWhole(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, objPath := recordTo(t, tl, 74, drbw.FormatBinary)
	td, err := drbw.LoadTrace(sPath, objPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tl.AnalyzeTraceRef(td)
	if err != nil {
		t.Fatal(err)
	}
	shards, oPath := splitTrace(t, td, 3)

	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		setProcs(t, workers)
		plans, restore := recordPlans()
		got, err := tl.AnalyzeTraceShards(shards, oPath)
		restore()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(*plans) != 1 || !(*plans)[0] {
			t.Fatalf("workers=%d: plans %v, want one with footer bounds", workers, *plans)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sharded report differs from the reference analysis\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestSinglePassRecordingMutatedDuringAnalysis proves the footer plan's
// consistency check: corruption that lands after the index was read must
// be caught by the per-block checksums.
func TestSinglePassRecordingMutatedDuringAnalysis(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, oPath := recordTo(t, tl, 75, drbw.FormatBinary)

	data, err := os.ReadFile(sPath)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := profiledata.ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the first block — well past
	// its two header uvarints, well before the next block — once the
	// analysis has already read and validated the footer.
	end := idx.DataEnd
	if len(idx.Entries) > 1 {
		end = idx.Entries[1].Offset
	}
	mid := (idx.Entries[0].Offset + end) / 2
	restore := drbw.SetTestHookPlanned(func(bool) {
		mutated := append([]byte(nil), data...)
		mutated[mid] ^= 0x40
		if err := os.WriteFile(sPath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	_, err = tl.AnalyzeTraceFile(sPath, oPath)
	restore()
	if err == nil || !strings.Contains(err.Error(), "index checksum") {
		t.Fatalf("error = %v, want per-block checksum failure", err)
	}

	// Restored, the recording analyzes cleanly again.
	if err := os.WriteFile(sPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.AnalyzeTraceFile(sPath, oPath); err != nil {
		t.Fatal(err)
	}
}

// forgeFooterTimes rewrites path's index footer with modified entry times.
// The entry times live in the footer, which no block checksum covers — so a
// forged footer passes every checksum and must be caught by the fused
// pass's consistency check instead.
func forgeFooterTimes(t *testing.T, path string, mutate func(entries []profiledata.IndexEntry)) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := profiledata.ReadBlockIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	mutate(idx.Entries)
	out := filepath.Join(t.TempDir(), "forged.bin")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	// Body plus its zero-count terminator at DataEnd, then the new footer.
	if _, err := f.Write(data[:idx.DataEnd+1]); err != nil {
		t.Fatal(err)
	}
	if err := profiledata.WriteBlockIndex(f, idx.Entries); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSinglePassRejectsLyingIndexFooter: a footer whose time claims
// disagree with the decoded samples — narrower, so real samples fall
// outside the claimed range, or wider, so the observed range never reaches
// the claim — must fail loudly, never panic or silently mis-bucket the
// timeline.
func TestSinglePassRejectsLyingIndexFooter(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, oPath := recordTo(t, tl, 76, drbw.FormatBinary)

	forged := map[string]string{
		"narrower": forgeFooterTimes(t, sPath, func(entries []profiledata.IndexEntry) {
			// Claim the recording starts later than it does: the samples at
			// the true global minimum land outside the claimed range.
			g := entries[0].MinTime
			for _, e := range entries {
				if e.MinTime < g {
					g = e.MinTime
				}
			}
			for i := range entries {
				if entries[i].MinTime == g {
					entries[i].MinTime = g + 1
				}
			}
		}),
		"wider": forgeFooterTimes(t, sPath, func(entries []profiledata.IndexEntry) {
			// Claim more trailing span than any sample occupies: the
			// observed range never reaches the claim.
			entries[len(entries)-1].MaxTime += 1e6
		}),
	}
	for _, workers := range []int{1, 2} {
		setProcs(t, workers)
		for name, path := range forged {
			plans, restore := recordPlans()
			_, err := tl.AnalyzeTraceFile(path, oPath)
			restore()
			if len(*plans) != 1 || !(*plans)[0] {
				t.Fatalf("workers=%d %s: plans %v, want one with footer bounds", workers, name, *plans)
			}
			if err == nil || !strings.Contains(err.Error(), "index disagrees with recording") {
				t.Fatalf("workers=%d %s: error = %v, want index-disagrees", workers, name, err)
			}
		}
	}
}

// TestOverlappingObjectsFailOnlyWhenContended: the objects table only
// matters once classification flags contention, exactly as in the
// reference analysis — a clean recording with an overlapping table still analyzes, a
// contended one fails with the table's error. Indexed, CSV and windowed
// inputs all agree with the reference analysis.
func TestOverlappingObjectsFailOnlyWhenContended(t *testing.T) {
	tl := sharedTool(t)
	for _, rc := range []struct {
		bench     string
		contended bool
	}{{"Swaptions", false}, {"Streamcluster", true}} {
		td, err := tl.Record(rc.bench, drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 79})
		if err != nil {
			t.Fatal(err)
		}
		if len(td.Objects) == 0 {
			t.Fatalf("%s: recording has no objects", rc.bench)
		}
		first := td.Objects[0]
		td.Objects = append(td.Objects, drbw.ObjectRecord{ID: 1 << 20, Name: "overlap", Base: first.Base, Size: first.Size})
		dir := t.TempDir()
		csvPath := filepath.Join(dir, "samples.csv")
		oPath := filepath.Join(dir, "objects.csv")
		if err := td.SaveAs(csvPath, oPath, drbw.FormatCSV); err != nil {
			t.Fatal(err)
		}
		// Analyze the CSV-quantized samples so every input holds the same.
		td, err = drbw.LoadTrace(csvPath, oPath)
		if err != nil {
			t.Fatal(err)
		}
		binPath := filepath.Join(dir, "samples.bin")
		if err := td.SaveAs(binPath, oPath, drbw.FormatBinary); err != nil {
			t.Fatal(err)
		}
		want, wantErr := tl.AnalyzeTraceRef(td)
		if rc.contended != (wantErr != nil) {
			t.Fatalf("%s: reference error = %v, want failure=%v", rc.bench, wantErr, rc.contended)
		}
		if wantErr != nil && !strings.Contains(wantErr.Error(), "overlap") {
			t.Fatalf("%s: reference error = %v, want the overlap error", rc.bench, wantErr)
		}
		lo, hi := timeWindow(td)
		wantWin, wantWinErr := tl.AnalyzeTraceRef(windowed(td, lo, hi))

		check := func(name string, got *drbw.Report, err error, want *drbw.Report, wantErr error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s %s: error = %v, want %v", rc.bench, name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: report differs from the reference analysis\n got %+v\nwant %+v", rc.bench, name, got, want)
			}
		}
		for _, path := range []string{binPath, csvPath} {
			got, err := tl.AnalyzeTraceFile(path, oPath)
			check(filepath.Base(path), got, err, want, wantErr)
			got, err = tl.AnalyzeTraceFileRange(path, oPath, lo, hi)
			check(filepath.Base(path)+" window", got, err, wantWin, wantWinErr)
		}
	}
}
