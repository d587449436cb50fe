package drbw_test

// Codec and streaming-analysis benchmarks on a ~1M-sample synthetic trace.
// scripts/bench.sh snapshots these into BENCH_engine.json, with the
// binary-over-CSV decode ratio of the TraceDecode pair.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"drbw"
	"drbw/internal/profiledata"
)

// benchTraceSamples is ~1M: large enough that decode and analysis dominate
// setup, small enough that a CSV copy of the trace fits comfortably in RAM.
const benchTraceSamples = 1 << 20

// codecTrace builds an n-sample recording on the CSV grid (integral times,
// whole-cycle latencies) so both formats carry identical data and the
// decode comparison is apples to apples. The mix skews toward remote MEM
// traffic onto node 0 so the analysis benchmarks exercise the full
// detect + attribute + timeline pipeline.
func codecTrace(n int) *drbw.TraceData {
	rng := rand.New(rand.NewSource(42))
	levels := []string{"L1", "L2", "L3", "LFB", "MEM"}
	const objSize = 1 << 24
	td := &drbw.TraceData{Bench: "synthetic", Config: "bench", Weight: 3}
	for i := 0; i < 8; i++ {
		td.Objects = append(td.Objects, drbw.ObjectRecord{
			ID: i, Name: fmt.Sprintf("obj%d", i), Func: "bench", File: "bench.go", Line: 10 + i,
			Base: 0x10000000 + uint64(i)*objSize, Size: objSize,
		})
	}
	td.Samples = make([]drbw.SampleRecord, n)
	for i := range td.Samples {
		level := levels[rng.Intn(len(levels))]
		src := rng.Intn(4)
		home := src
		lat := float64(40 + rng.Intn(200))
		if level == "MEM" {
			home = rng.Intn(4) & 1 // remote traffic piles onto nodes 0 and 1
			lat = float64(300 + rng.Intn(900))
		}
		td.Samples[i] = drbw.SampleRecord{
			Time:     float64(i * 20),
			CPU:      rng.Intn(32),
			Thread:   rng.Intn(32),
			Addr:     0x10000000 + uint64(rng.Int63n(8*objSize)),
			Level:    level,
			Latency:  lat,
			Write:    rng.Intn(5) == 0,
			SrcNode:  src,
			HomeNode: home,
		}
	}
	return td
}

// BenchmarkTraceDecode decodes the same 1M-sample trace from both on-disk
// formats through the autodetecting reader. ns/op is the full-trace decode
// time, so csv_ns / binary_ns is the decode speedup scripts/bench.sh
// records; the binary variant also reports the file-size ratio as
// csv-size-x. csv-quoted is the CSV copy with every field quoted, as tools
// that always quote write it, which takes the reader's quoted-line path.
func BenchmarkTraceDecode(b *testing.B) {
	td := codecTrace(benchTraceSamples)
	dir := b.TempDir()
	encoded := map[string][]byte{}
	for name, format := range map[string]drbw.TraceFormat{
		"csv": drbw.FormatCSV, "binary": drbw.FormatBinary,
	} {
		sPath := filepath.Join(dir, "samples-"+name)
		if err := td.SaveAs(sPath, filepath.Join(dir, "objects-"+name), format); err != nil {
			b.Fatal(err)
		}
		raw, err := os.ReadFile(sPath)
		if err != nil {
			b.Fatal(err)
		}
		encoded[name] = raw
	}
	encoded["csv-quoted"] = quoteFields(encoded["csv"])
	for _, name := range []string{"csv", "csv-quoted", "binary"} {
		b.Run(name, func(b *testing.B) {
			raw := encoded[name]
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				samples, _, err := profiledata.ReadSamples(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				if len(samples) != len(td.Samples) {
					b.Fatalf("decoded %d samples, want %d", len(samples), len(td.Samples))
				}
			}
			b.ReportMetric(float64(len(td.Samples)), "samples/op")
			if name == "binary" {
				b.ReportMetric(float64(len(encoded["csv"]))/float64(len(raw)), "csv-size-x")
			}
		})
	}
}

// quoteFields wraps every field of every line of a CSV recording in double
// quotes.
func quoteFields(csv []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimSuffix(csv, []byte("\n")), []byte("\n")) {
		out.WriteByte('"')
		out.Write(bytes.ReplaceAll(line, []byte(","), []byte(`","`)))
		out.WriteString("\"\n")
	}
	return out.Bytes()
}

// BenchmarkAnalyzeTrace runs the full offline analysis of the 1M-sample
// recording. slice is LoadTrace + AnalyzeTrace: it materializes the trace,
// then runs the fused pass over it in memory. stream is AnalyzeTraceFile:
// the same fused pass block at a time off disk, memory bounded by the
// decode block size and the timeline's remote-sample column (visible in
// B/op).
func BenchmarkAnalyzeTrace(b *testing.B) {
	tool := sharedTool(b)
	td := codecTrace(benchTraceSamples)
	dir := b.TempDir()
	sPath := filepath.Join(dir, "samples.bin")
	oPath := filepath.Join(dir, "objects.csv")
	if err := td.SaveAs(sPath, oPath, drbw.FormatBinary); err != nil {
		b.Fatal(err)
	}
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loaded, err := drbw.LoadTrace(sPath, oPath)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tool.AnalyzeTrace(loaded); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tool.AnalyzeTraceFile(sPath, oPath); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnalyzeCached pins the result cache's payoff on the 1M-sample
// recording: cold clears the cache every iteration (fingerprint + full
// analysis + store), warm primes once and then every iteration is a
// fingerprint + memory-tier hit. scripts/bench.sh derives the cache-speedup
// gate (warm must be >= MIN_CACHE_SPEEDUP times faster than cold) from the
// pair; the reports are bit-identical either way.
func BenchmarkAnalyzeCached(b *testing.B) {
	tool := sharedTool(b)
	td := codecTrace(benchTraceSamples)
	dir := b.TempDir()
	sPath := filepath.Join(dir, "samples.bin")
	oPath := filepath.Join(dir, "objects.csv")
	if err := td.SaveAs(sPath, oPath, drbw.FormatBinary); err != nil {
		b.Fatal(err)
	}
	cache, err := drbw.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		b.Fatal(err)
	}
	tool.SetCache(cache)
	defer tool.SetCache(nil)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := cache.Clear(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := tool.AnalyzeTraceFile(sPath, oPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := tool.AnalyzeTraceFile(sPath, oPath); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tool.AnalyzeTraceFile(sPath, oPath); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardAnalyze pins the block-parallel analysis of one indexed
// recording: serial is the same fan-out at GOMAXPROCS=1, parallel at the
// host's GOMAXPROCS. scripts/bench.sh derives the shard-speedup gate from
// the pair; the merge is exact, so both variants produce bit-identical
// reports.
func BenchmarkShardAnalyze(b *testing.B) {
	tool := sharedTool(b)
	td := codecTrace(benchTraceSamples)
	dir := b.TempDir()
	sPath := filepath.Join(dir, "samples.bin")
	oPath := filepath.Join(dir, "objects.csv")
	if err := td.SaveAs(sPath, oPath, drbw.FormatBinary); err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		procs int
	}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
		b.Run(v.name, func(b *testing.B) {
			setProcs(b, v.procs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tool.AnalyzeTraceFile(sPath, oPath); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
