package drbw_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"drbw"
)

// recordTo records one contended case and saves it in the given format,
// returning the recording and its file paths.
func recordTo(t *testing.T, tl *drbw.Tool, seed uint64, format drbw.TraceFormat) (*drbw.TraceData, string, string) {
	t.Helper()
	c := drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: seed}
	td, err := tl.Record("Streamcluster", c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ext := ".csv"
	if format == drbw.FormatBinary {
		ext = ".bin"
	}
	sPath := filepath.Join(dir, "samples"+ext)
	oPath := filepath.Join(dir, "objects.csv")
	if err := td.SaveAs(sPath, oPath, format); err != nil {
		t.Fatal(err)
	}
	return td, sPath, oPath
}

// TestSaveAsFormatsLoadIdentically pins the cross-format guarantee: a
// recording saved as CSV and as binary loads back as the same recording,
// sample for sample and bit for bit, and both files analyze to the same
// report. Samples are whole cycles, so neither format rounds anything.
// The binary file is also the smaller one.
func TestSaveAsFormatsLoadIdentically(t *testing.T) {
	tl := sharedTool(t)
	td, csvPath, objects := recordTo(t, tl, 5, drbw.FormatCSV)
	binPath := filepath.Join(t.TempDir(), "samples.bin")
	if err := td.SaveAs(binPath, objects, drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}

	fromCSV, err := drbw.LoadTrace(csvPath, objects)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := drbw.LoadTrace(binPath, objects)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromCSV, fromBin) {
		t.Fatal("CSV and binary recordings load differently")
	}
	if !reflect.DeepEqual(fromBin.Samples, td.Samples) || fromBin.Weight != td.Weight {
		t.Fatal("a saved recording does not load back as recorded")
	}

	csvRep, err := tl.AnalyzeTraceFile(csvPath, objects)
	if err != nil {
		t.Fatal(err)
	}
	binRep, err := tl.AnalyzeTraceFile(binPath, objects)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(csvRep, binRep) {
		t.Fatalf("CSV and binary recordings analyze differently\n csv %+v\n bin %+v", csvRep, binRep)
	}

	ci, err := os.Stat(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := os.Stat(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Size()*2 > ci.Size() {
		t.Fatalf("binary recording %d bytes vs CSV %d bytes: less than 2x smaller", bi.Size(), ci.Size())
	}

	dir := t.TempDir()
	if err := td.SaveAs(filepath.Join(dir, "x"), filepath.Join(dir, "y"), "parquet"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestAnalyzeTraceFileMatchesSlicePath pins the streaming analysis of a
// recording on disk — in either format — to the reference analysis of
// LoadTrace's slice: verdicts, features, CF ranking, timeline and all.
func TestAnalyzeTraceFileMatchesSlicePath(t *testing.T) {
	tl := sharedTool(t)
	for _, format := range []drbw.TraceFormat{drbw.FormatCSV, drbw.FormatBinary} {
		_, sPath, oPath := recordTo(t, tl, 62, format)

		td, err := drbw.LoadTrace(sPath, oPath)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tl.AnalyzeTraceRef(td)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tl.AnalyzeTraceFile(sPath, oPath)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: streamed report differs from the reference analysis\n got %+v\nwant %+v", format, got, want)
		}
		if !got.Contended() {
			t.Fatalf("%s: streaming analysis missed the contention", format)
		}
		if top := got.TopObjects(1); len(top) == 0 || top[0] != "block" {
			t.Errorf("%s: top object = %v, want block", format, top)
		}
	}
}

// TestAnalyzeTraceFilesBatch pins the batch wrapper: per-worker scratch
// reuse must not leak state between recordings, and failures surface as
// a BatchError with partial results.
func TestAnalyzeTraceFilesBatch(t *testing.T) {
	tl := sharedTool(t)
	_, s1, o1 := recordTo(t, tl, 63, drbw.FormatBinary)
	_, s2, o2 := recordTo(t, tl, 64, drbw.FormatCSV)

	paths := []drbw.TracePaths{
		{Samples: s1, Objects: o1},
		{Samples: filepath.Join(t.TempDir(), "missing.bin"), Objects: o1},
		{Samples: s2, Objects: o2},
	}
	reports, err := tl.AnalyzeTraceFiles(paths)
	if err == nil {
		t.Fatal("missing file did not surface an error")
	}
	be, ok := err.(*drbw.BatchError)
	if !ok {
		t.Fatalf("error type %T, want *BatchError", err)
	}
	if len(be.Cases) != 1 || be.Cases[0].Index != 1 {
		t.Fatalf("failed cases = %+v, want exactly index 1", be.Cases)
	}
	if reports[0] == nil || reports[2] == nil || reports[1] != nil {
		t.Fatal("partial results wrong: want reports 0 and 2, nil report 1")
	}

	// Each batch report matches its serial streaming analysis.
	for _, i := range []int{0, 2} {
		want, err := tl.AnalyzeTraceFile(paths[i].Samples, paths[i].Objects)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reports[i], want) {
			t.Fatalf("batch report %d differs from serial streaming analysis", i)
		}
	}
}

// TestAnalyzeTraceFileErrors mirrors AnalyzeTrace's validation on the
// streaming path.
func TestAnalyzeTraceFileErrors(t *testing.T) {
	tl := sharedTool(t)
	dir := t.TempDir()

	// Empty recording.
	empty := &drbw.TraceData{Weight: 1}
	sPath := filepath.Join(dir, "empty.bin")
	oPath := filepath.Join(dir, "empty-objects.csv")
	if err := empty.SaveAs(sPath, oPath, drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.AnalyzeTraceFile(sPath, oPath); err == nil || err.Error() != "drbw: recording has no samples" {
		t.Fatalf("empty recording error = %v", err)
	}

	// Sample outside the machine's nodes.
	bad := &drbw.TraceData{Weight: 1, Samples: []drbw.SampleRecord{
		{Time: 1, Level: "MEM", Latency: 100, SrcNode: 9, HomeNode: 0},
	}}
	sPath2 := filepath.Join(dir, "bad.bin")
	oPath2 := filepath.Join(dir, "bad-objects.csv")
	if err := bad.SaveAs(sPath2, oPath2, drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.AnalyzeTraceFile(sPath2, oPath2); err == nil {
		t.Fatal("out-of-range node accepted")
	}

	// Missing files.
	if _, err := tl.AnalyzeTraceFile(filepath.Join(dir, "nope"), oPath); err == nil {
		t.Fatal("missing samples file accepted")
	}
	if _, err := tl.AnalyzeTraceFile(sPath, filepath.Join(dir, "nope")); err == nil {
		t.Fatal("missing objects file accepted")
	}
}
