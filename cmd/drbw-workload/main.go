// drbw-workload analyzes a user-defined workload described in a JSON spec
// file: bandwidth-contention detection, CF diagnosis, optional placement
// fixes, and the shared-cache contention extension.
//
// Usage:
//
//	drbw-workload -spec workload.json [-threads 32] [-nodes 4]
//	              [-machine machine.json] [-model model.json]
//	              [-fix interleave|colocate|replicate] [-cache]
//	              [-truth] [-quick] [-metrics]
//
// Observability: -metrics appends the final registry snapshot to stdout,
// and training/analysis progress reports on stderr. SIGQUIT dumps the
// flight recorder and all goroutine stacks.
//
// Spec file example:
//
//	{
//	  "name": "lookup-service",
//	  "arrays": [
//	    {"name": "table",  "mb": 128, "placement": "master",   "pattern": "shared-random", "weight": 4},
//	    {"name": "output", "mb": 32,  "placement": "parallel", "pattern": "scan", "write_every": 2}
//	  ],
//	  "mlp": 6,
//	  "work_cycles": 2
//	}
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
	spec := flag.String("spec", "", "workload spec JSON (required)")
	threads := flag.Int("threads", 32, "total threads")
	nodes := flag.Int("nodes", 4, "NUMA nodes")
	machineFile := flag.String("machine", "", "custom machine spec JSON (trains on that machine)")
	model := flag.String("model", "", "saved classifier (skips training; incompatible with -machine)")
	fix := flag.String("fix", "", "measure a fix: interleave, colocate or replicate")
	truth := flag.Bool("truth", false, "run the interleave ground-truth probe")
	cacheToo := flag.Bool("cache", false, "also run the shared-cache contention detector")
	quick := flag.Bool("quick", false, "quick training")
	cli := obs.NewCLI()
	flag.Parse()

	cli.Start()
	if *spec == "" {
		flag.Usage()
		os.Exit(2)
	}
	w, err := drbw.LoadWorkloadSpec(*spec)
	if err != nil {
		cli.Fatal(err)
	}

	var tool *drbw.Tool
	start := time.Now()
	switch {
	case *model != "":
		tool, err = drbw.Load(*model)
	case *machineFile != "":
		var ms drbw.MachineSpec
		if ms, err = drbw.LoadMachineSpec(*machineFile); err == nil {
			fmt.Fprintf(os.Stderr, "training on %s (quick=%v)...\n", ms.Name, *quick)
			tool, err = drbw.TrainOn(ms, drbw.Config{Quick: *quick})
		}
	default:
		fmt.Fprintf(os.Stderr, "training classifier (quick=%v)...\n", *quick)
		tool, err = drbw.Train(drbw.Config{Quick: *quick})
	}
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ready in %.1fs\n\n", time.Since(start).Seconds())

	c := drbw.Case{Threads: *threads, Nodes: *nodes}
	var rep *drbw.Report
	if *truth {
		rep, err = tool.EvaluateWorkload(w, c)
	} else {
		rep, err = tool.AnalyzeWorkload(w, c)
	}
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Print(rep)

	if *fix != "" {
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
		objs := rep.TopObjects(1)
		if strategy == drbw.Interleave {
			objs = nil
		}
		cmp, err := tool.OptimizeWorkload(w, c, strategy, objs...)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("\n%s", strategy)
		if len(objs) > 0 {
			fmt.Printf(" on %s", strings.Join(objs, ", "))
		}
		fmt.Printf(": %.2fx speedup, remote accesses %+.1f%%\n",
			cmp.Speedup(), -100*cmp.RemoteReduction)
	}

	if *cacheToo {
		fmt.Fprintf(os.Stderr, "\ntraining shared-cache detector...\n")
		ct, err := drbw.TrainCacheContention(drbw.Config{Quick: *quick})
		if err != nil {
			cli.Fatal(err)
		}
		crep, err := ct.AnalyzeWorkload(w, c)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Println()
		fmt.Print(crep)
	}

	cli.Finish()
}
