// drbw-analyze runs DR-BW's classification and diagnosis offline, on one
// or more recorded profiles: a samples file (CSV or binary columnar,
// autodetected) plus an allocation-table CSV (produced by drbw-profile
// -record, TraceData.Save/SaveAs, or any tool emitting the same schema —
// see internal/profiledata).
//
// Usage:
//
//	drbw-analyze -samples run.samples.csv -objects run.objects.csv
//	             [-model model.json] [-quick] [-range lo:hi]
//	             [-metrics] [-trace-out f [-trace-format tree]] [-ledger f]
//	drbw-analyze -shards dir/ [-model model.json] [-quick]
//	drbw-analyze -samples run.samples.csv -objects run.objects.csv
//	             -convert out [-format csv|binary]
//
// Both file flags accept comma-separated lists (paired positionally);
// multiple recordings are analyzed in parallel via Tool.AnalyzeTraceFiles
// with per-trace progress on stderr, and a recording that fails to analyze
// does not abort the others. Samples files may be CSV or the binary
// columnar format; the reader autodetects. Analysis streams recordings
// block by block, so memory stays bounded however large the trace is;
// binary recordings fan block ranges across the worker pool through their
// index footer, and CSV recordings byte ranges of whole lines, with a
// merged report bit-identical to the serial one. -workers sets GOMAXPROCS,
// which sizes every one of these fan-outs; -workers 1 runs serially.
//
// -shards analyzes a directory holding one recording split across several
// samples files (named *.samples.*) plus a single *.objects.csv, merging
// them into one report as if the shards had been one file. -range
// restricts the analysis to samples with lo <= time <= hi (two floats
// separated by a colon); on binary recordings whole blocks outside the
// window are never read.
//
// -convert transcodes the recordings to <prefix>.samples.{csv,bin} and
// <prefix>.objects.csv in the format chosen by -format (default binary)
// instead of analyzing; with multiple recordings, -convert takes a
// comma-separated prefix list paired positionally. No classifier is
// trained in convert mode.
//
// Without -model a classifier is trained first; with it, the saved model
// from drbw-train -o is used and no simulation runs at all.
//
// -cache names a result-cache directory: repeat analyses of a recording
// already analyzed with the same model are served from the cache instead of
// being recomputed, with bit-identical reports (keys are content hashes of
// the recording and the model, so editing either is automatically a miss).
// The run's hit/miss counts are reported on stderr.
//
// Observability: -metrics appends the final registry snapshot to stdout;
// -trace-out records the run's causal span tree and writes it as Chrome
// trace-event JSON (or a deterministic nested tree with -trace-format
// tree); -ledger writes a machine-readable run ledger (config hash, build
// info, timings, metrics, per-recording verdicts). Trace and ledger are
// written even when the analysis fails, so failed runs still leave an
// audit trail; a failure also dumps the flight recorder to stderr, and
// SIGQUIT dumps it with all goroutine stacks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"drbw"
	"drbw/internal/obs"
)

func main() {
	samples := flag.String("samples", "", "samples file (CSV or binary, autodetected), or a comma-separated list (required unless -shards)")
	objects := flag.String("objects", "", "allocation-table CSV, or a comma-separated list (required unless -shards)")
	shards := flag.String("shards", "", "directory holding one recording sharded across *.samples.* files plus one *.objects.csv")
	timeRange := flag.String("range", "", "restrict analysis to the lo:hi time window (two floats)")
	convert := flag.String("convert", "", "transcode the recordings to this output prefix (or comma-separated prefix list) instead of analyzing")
	format := flag.String("format", "binary", "target format for -convert: csv or binary")
	model := flag.String("model", "", "saved classifier from drbw-train -o")
	cacheDir := flag.String("cache", "", "result-cache directory; repeat analyses with the same model and recordings are served from it")
	quick := flag.Bool("quick", false, "quick training when no -model is given")
	workers := flag.Int("workers", 0, "GOMAXPROCS for every fan-out: multi-trace and block-range analysis and each training run's window (0 = the Go default, 1 = serial); never changes results")
	cli := obs.NewCLI().WithArtifacts("drbw-analyze")
	flag.Parse()

	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	cli.Start()

	sampleFiles := splitList(*samples)
	objectFiles := splitList(*objects)
	if *shards != "" {
		if *convert != "" || len(sampleFiles) > 0 || *timeRange != "" {
			log.Fatal("drbw-analyze: -shards replaces -samples/-objects and combines with neither -convert nor -range")
		}
	} else {
		if len(sampleFiles) == 0 || len(objectFiles) == 0 {
			flag.Usage()
			os.Exit(2)
		}
		if len(sampleFiles) != len(objectFiles) {
			log.Fatalf("drbw-analyze: %d sample files but %d object files; the lists pair positionally",
				len(sampleFiles), len(objectFiles))
		}
	}
	lo, hi, haveRange, err := parseRange(*timeRange)
	if err != nil {
		log.Fatal(err)
	}

	if *convert != "" {
		convertTraces(sampleFiles, objectFiles, splitList(*convert), *format)
		cli.Finish()
		return
	}

	var tool *drbw.Tool
	if *model != "" {
		tool, err = drbw.Load(*model)
	} else {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "no -model given; training classifier (quick=%v)...\n", *quick)
		tool, err = drbw.Train(drbw.Config{Quick: *quick})
		if err == nil {
			cli.Ledger.AddTiming("train", time.Since(start).Seconds())
			fmt.Fprintf(os.Stderr, "trained in %.1fs\n", time.Since(start).Seconds())
		}
	}
	if err != nil {
		cli.Fatal(err)
	}
	var cache *drbw.Cache
	if *cacheDir != "" {
		if cache, err = drbw.OpenCache(*cacheDir); err != nil {
			cli.Fatal(err)
		}
		tool.SetCache(cache)
	}

	analyzeStart := time.Now()
	if *shards != "" {
		rep, err := tool.AnalyzeTraceShardDir(*shards)
		cli.Ledger.AddTiming("analyze", time.Since(analyzeStart).Seconds())
		cli.Ledger.AddResult(drbw.ReportLedgerResult(*shards, rep, err))
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Print(rep)
		printCacheStats(cache)
		cli.Finish()
		return
	}

	var reports []*drbw.Report
	ferrs := make([]error, len(sampleFiles))
	if haveRange {
		// The batch runner has no windowed form; ranged recordings are
		// analyzed one at a time (each still fans out internally).
		reports = make([]*drbw.Report, len(sampleFiles))
		for i := range sampleFiles {
			rep, rerr := tool.AnalyzeTraceFileRange(sampleFiles[i], objectFiles[i], lo, hi)
			if rerr != nil {
				ferrs[i] = rerr
				fmt.Fprintf(os.Stderr, "%s: %v\n", sampleFiles[i], rerr)
				if err == nil {
					err = rerr
				}
				continue
			}
			reports[i] = rep
		}
	} else {
		paths := make([]drbw.TracePaths, len(sampleFiles))
		for i := range sampleFiles {
			paths[i] = drbw.TracePaths{Samples: sampleFiles[i], Objects: objectFiles[i]}
		}
		reports, err = tool.AnalyzeTraceFiles(paths)
		var be *drbw.BatchError
		if errors.As(err, &be) {
			for _, c := range be.Cases {
				if c.Index >= 0 && c.Index < len(ferrs) {
					ferrs[c.Index] = c.Err
				}
			}
		}
	}
	cli.Ledger.AddTiming("analyze", time.Since(analyzeStart).Seconds())
	for i, rep := range reports {
		cli.Ledger.AddResult(drbw.ReportLedgerResult(sampleFiles[i], rep, ferrs[i]))
		if len(reports) > 1 {
			fmt.Printf("== %s ==\n", sampleFiles[i])
		}
		if rep == nil {
			fmt.Printf("analysis failed (see stderr)\n\n")
			continue
		}
		fmt.Print(rep)
		if len(reports) > 1 {
			fmt.Println()
		}
	}
	printCacheStats(cache)
	cli.Finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// printCacheStats reports the run's result-cache traffic on stderr.
func printCacheStats(cache *drbw.Cache) {
	if cache == nil {
		return
	}
	st := cache.Stats()
	fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d shared, %d corrupt\n",
		st.Hits, st.Misses, st.Shared, st.Corrupt)
}

// convertTraces transcodes each recording to the target format under its
// paired output prefix.
func convertTraces(sampleFiles, objectFiles, prefixes []string, format string) {
	var tf drbw.TraceFormat
	ext := ".csv"
	switch strings.ToLower(format) {
	case "csv":
		tf = drbw.FormatCSV
	case "binary", "bin":
		tf = drbw.FormatBinary
		ext = ".bin"
	default:
		log.Fatalf("drbw-analyze: unknown -format %q (want csv or binary)", format)
	}
	if len(prefixes) != len(sampleFiles) {
		log.Fatalf("drbw-analyze: %d recordings but %d -convert prefixes; the lists pair positionally",
			len(sampleFiles), len(prefixes))
	}
	for i := range sampleFiles {
		td, err := drbw.LoadTrace(sampleFiles[i], objectFiles[i])
		if err != nil {
			log.Fatal(err)
		}
		sPath, oPath := prefixes[i]+".samples"+ext, prefixes[i]+".objects.csv"
		if err := td.SaveAs(sPath, oPath, tf); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "converted %s (%d samples, weight %g) -> %s\n",
			sampleFiles[i], len(td.Samples), td.Weight, sPath)
	}
}

// parseRange parses a -range value of the form "lo:hi" into a time window.
func parseRange(s string) (lo, hi float64, have bool, err error) {
	if s == "" {
		return 0, 0, false, nil
	}
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, 0, false, fmt.Errorf("drbw-analyze: -range %q is not lo:hi", s)
	}
	if lo, err = strconv.ParseFloat(s[:i], 64); err != nil {
		return 0, 0, false, fmt.Errorf("drbw-analyze: -range lower bound %q: %v", s[:i], err)
	}
	if hi, err = strconv.ParseFloat(s[i+1:], 64); err != nil {
		return 0, 0, false, fmt.Errorf("drbw-analyze: -range upper bound %q: %v", s[i+1:], err)
	}
	if lo != lo || hi != hi {
		return 0, 0, false, fmt.Errorf("drbw-analyze: -range %q has a NaN bound, which selects no samples (want numbers with lo <= hi)", s)
	}
	if lo > hi {
		return 0, 0, false, fmt.Errorf("drbw-analyze: -range %q is inverted (want lo <= hi)", s)
	}
	return lo, hi, true, nil
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
