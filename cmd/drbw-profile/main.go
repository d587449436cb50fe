// drbw-profile runs the full DR-BW pipeline on one benchmark case:
// per-channel contention detection, Contribution-Fraction diagnosis, and —
// on request — a placement fix with measured speedup.
//
// Usage:
//
//	drbw-profile -bench Streamcluster [-input native] [-threads 32]
//	             [-nodes 4] [-fix replicate|colocate|interleave]
//	             [-objects block,point.p] [-quick] [-truth]
//	             [-record run [-format csv|binary]]
//	             [-metrics]
//	drbw-profile -list
//
// -record writes the raw profile for offline analysis; -format picks the
// samples encoding (csv is greppable text, binary is the compact columnar
// format — drbw-analyze reads both).
//
// Observability: -metrics appends the final registry snapshot to stdout,
// and training/analysis progress reports on stderr. SIGQUIT dumps the
// flight recorder and all goroutine stacks.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"drbw"
	"drbw/internal/obs"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (see -list)")
	list := flag.Bool("list", false, "list benchmarks and inputs")
	input := flag.String("input", "", "input size (default: smallest)")
	threads := flag.Int("threads", 32, "total threads")
	nodes := flag.Int("nodes", 4, "NUMA nodes")
	fix := flag.String("fix", "", "measure a fix: interleave, colocate or replicate")
	objects := flag.String("objects", "", "comma-separated object names for -fix (default: top-CF object)")
	truth := flag.Bool("truth", false, "also run the interleave ground-truth probe")
	quick := flag.Bool("quick", false, "quick training")
	model := flag.String("model", "", "load a saved classifier instead of training")
	record := flag.String("record", "", "record the profile to <prefix>.samples.{csv,bin} and <prefix>.objects.csv")
	format := flag.String("format", "csv", "recording format for -record: csv (text, greppable) or binary (columnar, compact)")
	cli := obs.NewCLI()
	flag.Parse()

	cli.Start()

	if *list {
		for _, name := range drbw.Benchmarks() {
			inputs, _ := drbw.BenchmarkInputs(name)
			fmt.Printf("%-14s inputs: %s\n", name, strings.Join(inputs, ", "))
		}
		return
	}
	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}

	var tool *drbw.Tool
	var err error
	if *model != "" {
		tool, err = drbw.Load(*model)
		if err != nil {
			cli.Fatal(err)
		}
	} else {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "training classifier (quick=%v)...\n", *quick)
		tool, err = drbw.Train(drbw.Config{Quick: *quick})
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trained in %.1fs\n\n", time.Since(start).Seconds())
	}

	c := drbw.Case{Input: *input, Threads: *threads, Nodes: *nodes}

	if *record != "" {
		var tf drbw.TraceFormat
		ext := ".csv"
		switch strings.ToLower(*format) {
		case "csv":
			tf = drbw.FormatCSV
		case "binary", "bin":
			tf = drbw.FormatBinary
			ext = ".bin"
		default:
			log.Fatalf("unknown -format %q (want csv or binary)", *format)
		}
		td, err := tool.Record(*bench, c)
		if err != nil {
			cli.Fatal(err)
		}
		sPath, oPath := *record+".samples"+ext, *record+".objects.csv"
		if err := td.SaveAs(sPath, oPath, tf); err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d samples to %s, %d objects to %s\n",
			len(td.Samples), sPath, len(td.Objects), oPath)
	}

	var rep *drbw.Report
	if *truth {
		rep, err = tool.Evaluate(*bench, c)
	} else {
		rep, err = tool.Analyze(*bench, c)
	}
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Print(rep)

	if *fix == "" {
		cli.Finish()
		return
	}
	var strategy drbw.Strategy
	switch strings.ToLower(*fix) {
	case "interleave":
		strategy = drbw.Interleave
	case "colocate", "co-locate":
		strategy = drbw.Colocate
	case "replicate":
		strategy = drbw.Replicate
	default:
		log.Fatalf("unknown fix %q", *fix)
	}
	var objs []string
	if *objects != "" {
		objs = strings.Split(*objects, ",")
	} else if strategy != drbw.Interleave {
		objs = rep.TopObjects(1)
	}
	cmp, err := tool.Optimize(*bench, c, strategy, objs...)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("\n%s", strategy)
	if len(objs) > 0 {
		fmt.Printf(" on %s", strings.Join(objs, ", "))
	}
	fmt.Printf(": %.2fx speedup", cmp.Speedup())
	if len(cmp.PhaseSpeedups) > 1 {
		fmt.Printf(" (per phase:")
		for _, s := range cmp.PhaseSpeedups {
			fmt.Printf(" %.2fx", s)
		}
		fmt.Printf(")")
	}
	fmt.Printf("\nremote accesses %+.1f%%, avg DRAM latency %+.1f%%\n",
		-100*cmp.RemoteReduction, -100*cmp.LatencyReduction)
	cli.Finish()
}
