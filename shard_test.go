package drbw_test

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"drbw"
	"drbw/internal/profiledata"
)

// reblock rewrites a saved binary recording with small indexed blocks so a
// modest test trace still spans enough blocks to exercise the fan-out.
func reblock(t *testing.T, samplesPath string, blockSize int) string {
	t.Helper()
	f, err := os.Open(samplesPath)
	if err != nil {
		t.Fatal(err)
	}
	samples, weight, err := profiledata.ReadSamples(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "reblocked.bin")
	g, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := profiledata.WriteSamplesBinary(g, samples, weight, blockSize); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAnalyzeTraceFileWorkerCountInvariance is the shard contract at the
// top of the pipeline: the block-parallel analysis of an indexed recording
// is bit-identical to the reference analysis at every worker count, and the CSV
// whole-file job agrees too.
func TestAnalyzeTraceFileWorkerCountInvariance(t *testing.T) {
	tl := sharedTool(t)
	// Record to CSV first so every format below holds the identical
	// grid-quantized samples (and the reference report carries no
	// Record-only metadata).
	_, csvPath, oPath := recordTo(t, tl, 71, drbw.FormatCSV)
	td, err := drbw.LoadTrace(csvPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	sPath := filepath.Join(t.TempDir(), "samples.bin")
	if err := td.SaveAs(sPath, filepath.Join(t.TempDir(), "o.csv"), drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}
	small := reblock(t, sPath, 64)
	want, err := tl.AnalyzeTraceRef(td)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
		setProcs(t, workers)
		// sPath and small fan block ranges out; csvPath streams as one
		// whole-file job. All three must match the reference analysis bit for bit.
		for _, path := range []string{sPath, small, csvPath} {
			got, err := tl.AnalyzeTraceFile(path, oPath)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, path, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d %s: sharded report differs from the reference analysis\n got %+v\nwant %+v", workers, path, got, want)
			}
		}
	}
}

// splitTrace saves td's samples as n shard files (same weight, shared
// objects table) and returns the shard paths plus the objects path.
func splitTrace(t *testing.T, td *drbw.TraceData, n int) ([]string, string) {
	t.Helper()
	dir := t.TempDir()
	oPath := filepath.Join(dir, "trace.objects.csv")
	var shards []string
	per := (len(td.Samples) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(td.Samples) {
			lo = len(td.Samples)
		}
		if hi > len(td.Samples) {
			hi = len(td.Samples)
		}
		part := &drbw.TraceData{Weight: td.Weight, Samples: td.Samples[lo:hi], Objects: td.Objects}
		sPath := filepath.Join(dir, "trace.samples."+string(rune('0'+i))+".bin")
		if err := part.SaveAs(sPath, oPath, drbw.FormatBinary); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sPath)
	}
	return shards, oPath
}

// TestAnalyzeTraceShardsMatchesWhole: a recording split across shard files
// analyzes bit-identically to the whole trace, at several worker counts.
func TestAnalyzeTraceShardsMatchesWhole(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, objPath := recordTo(t, tl, 72, drbw.FormatBinary)
	td, err := drbw.LoadTrace(sPath, objPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tl.AnalyzeTraceRef(td)
	if err != nil {
		t.Fatal(err)
	}
	shards, oPath := splitTrace(t, td, 3)

	host := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, 2, host} {
		setProcs(t, workers)
		got, err := tl.AnalyzeTraceShards(shards, oPath)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: shard-merged report differs from the whole-trace analysis", workers)
		}
	}

	// The directory form discovers the same shards.
	setProcs(t, host)
	got, err := tl.AnalyzeTraceShardDir(filepath.Dir(shards[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shard-dir report differs from the whole-trace analysis")
	}
}

// TestAnalyzeTraceShardsErrors: weight mismatches and malformed shard
// directories fail loudly instead of merging inconsistent recordings.
func TestAnalyzeTraceShardsErrors(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, objPath := recordTo(t, tl, 73, drbw.FormatBinary)
	td, err := drbw.LoadTrace(sPath, objPath)
	if err != nil {
		t.Fatal(err)
	}
	shards, oPath := splitTrace(t, td, 2)

	// A shard recorded at a different weight must be rejected.
	heavier := &drbw.TraceData{Weight: td.Weight + 1, Samples: td.Samples[:4], Objects: td.Objects}
	badPath := filepath.Join(t.TempDir(), "bad.samples.0.bin")
	if err := heavier.SaveAs(badPath, filepath.Join(t.TempDir(), "o.csv"), drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.AnalyzeTraceShards([]string{shards[0], badPath}, oPath); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("weight mismatch error = %v", err)
	}

	if _, err := tl.AnalyzeTraceShards(nil, oPath); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := tl.AnalyzeTraceShardDir(t.TempDir()); err == nil {
		t.Error("empty shard dir accepted")
	}
}

// TestAnalyzeTraceFileRange: a time window analyzes exactly like the
// manually filtered trace, on both indexed and CSV recordings.
func TestAnalyzeTraceFileRange(t *testing.T) {
	tl := sharedTool(t)
	_, csvFile, oPath := recordTo(t, tl, 74, drbw.FormatCSV)
	td, err := drbw.LoadTrace(csvFile, oPath)
	if err != nil {
		t.Fatal(err)
	}
	sPath := filepath.Join(t.TempDir(), "samples.bin")
	if err := td.SaveAs(sPath, filepath.Join(t.TempDir(), "o.csv"), drbw.FormatBinary); err != nil {
		t.Fatal(err)
	}
	small := reblock(t, sPath, 64)

	times := make([]float64, len(td.Samples))
	for i, s := range td.Samples {
		times[i] = s.Time
	}
	lo, hi := times[len(times)/4], times[3*len(times)/4]
	want := &drbw.TraceData{Weight: td.Weight, Objects: td.Objects}
	for _, s := range td.Samples {
		if s.Time >= lo && s.Time <= hi {
			want.Samples = append(want.Samples, s)
		}
	}
	wantRep, err := tl.AnalyzeTraceRef(want)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		setProcs(t, workers)
		for _, path := range []string{sPath, small, csvFile} {
			got, err := tl.AnalyzeTraceFileRange(path, oPath, lo, hi)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, path, err)
			}
			if !reflect.DeepEqual(got, wantRep) {
				t.Fatalf("workers=%d %s: ranged report differs from the filtered reference analysis", workers, path)
			}
		}
	}

	// An inverted window is rejected; an empty window errors distinctly.
	if _, err := tl.AnalyzeTraceFileRange(sPath, oPath, hi, lo); err == nil {
		t.Error("inverted time range accepted")
	}
	if _, err := tl.AnalyzeTraceFileRange(sPath, oPath, -2, -1); err == nil || !strings.Contains(err.Error(), "time range") {
		t.Errorf("empty window error = %v", err)
	}
}
