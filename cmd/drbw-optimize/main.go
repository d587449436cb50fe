// drbw-optimize runs DR-BW's closed loop on built-in benchmark cases:
// profile, classify, diagnose — and, when contention is detected, search
// the placement space over the diagnosed objects for the best fix.
//
// Usage:
//
//	drbw-optimize -bench NW[,Streamcluster,...] [-threads 32] [-nodes 4]
//	              [-input name] [-seed n] [-model model.json] [-quick]
//	              [-topk 3] [-frontier 12] [-exhaustive] [-workers n]
//	              [-metrics] [-trace-out f [-trace-format tree]]
//	              [-ledger f]
//
// For each case the tool prints the detection verdict, the diagnosed
// objects, the search statistics (candidates enumerated / simulated /
// pruned by the analytic frontier / cut short by the cycle budget), the
// chosen placement and its measured comparison against the baseline run
// (speedup, remote-access and latency reductions).
//
// Candidate placements are ranked by an analytic cost model computed from
// the detection's retained samples; only the top -frontier candidates are
// simulated, in parallel, each wave bounded by the best cycle count seen so
// far (a losing run aborts at the first epoch past the incumbent).
// -exhaustive disables both cuts and simulates every candidate to
// completion. The chosen placement is identical either way on the cases the
// analytic ranking orders correctly, and identical at any -workers setting
// always: -workers sets GOMAXPROCS, which sizes the waves and each run's
// window, and -workers 1 runs serially.
//
// Without -model a classifier is trained first; -quick trains on the
// reduced set.
//
// -cache names a result-cache directory: a case already optimized with the
// same model and engine configuration is served from the cache, and a rerun
// with different search options still reuses its cached detection verdict
// and baseline measurement. Hit/miss counts are reported on stderr.
//
// Observability: -metrics appends the final registry snapshot to stdout,
// -trace-out writes the run's causal span tree (Chrome trace-event JSON,
// or a nested tree with -trace-format tree) and -ledger a run ledger with
// each case's verdict, placement and speedup. Both are written even when
// the run fails; SIGQUIT dumps the flight recorder and all goroutine
// stacks.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"drbw"
	"drbw/internal/obs"
)

func main() {
	bench := flag.String("bench", "", "comma-separated benchmark names (required; see drbw-workload for the list)")
	input := flag.String("input", "", "benchmark input size (default: smallest)")
	threads := flag.Int("threads", 32, "total threads")
	nodes := flag.Int("nodes", 4, "NUMA nodes used")
	seed := flag.Uint64("seed", 1, "base seed; benchmarks are decorrelated from it")
	model := flag.String("model", "", "saved classifier from drbw-train -o")
	cacheDir := flag.String("cache", "", "result-cache directory; repeat optimizations with the same model are served from it")
	quick := flag.Bool("quick", false, "quick training when no -model is given")
	topk := flag.Int("topk", 0, "top-CF objects the search combines (0 = default 3)")
	frontier := flag.Int("frontier", 0, "candidates simulated after analytic ranking (0 = default 12, negative = all)")
	exhaustive := flag.Bool("exhaustive", false, "simulate every candidate to completion (no frontier cut, no cycle budget)")
	workers := flag.Int("workers", 0, "GOMAXPROCS for every fan-out: candidate simulation, training and each run's window (0 = the Go default, 1 = serial); never changes the chosen placement")
	cli := obs.NewCLI().WithArtifacts("drbw-optimize")
	flag.Parse()

	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	cli.Start()

	var tool *drbw.Tool
	var err error
	if *model != "" {
		tool, err = drbw.Load(*model)
	} else {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "no -model given; training classifier (quick=%v)...\n", *quick)
		tool, err = drbw.Train(drbw.Config{Quick: *quick})
		if err == nil {
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

	opts := drbw.SearchOptions{
		TopObjects: *topk,
		Frontier:   *frontier,
		Exhaustive: *exhaustive,
	}
	failed := 0
	caseSeed := *seed
	for _, name := range strings.Split(*bench, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c := drbw.Case{Input: *input, Threads: *threads, Nodes: *nodes, Seed: caseSeed}
		caseSeed += 1009
		start := time.Now()
		opt, err := tool.AutoOptimize(name, c, opts)
		if err != nil {
			obs.FlightFailure("optimize."+name, err)
			cli.Ledger.AddResult(obs.LedgerResult{Name: name, Kind: "optimization", Error: err.Error()})
			fmt.Fprintf(os.Stderr, "drbw-optimize: %s: %v\n", name, err)
			failed++
			continue
		}
		lr := drbw.ReportLedgerResult(name, opt.Report, nil)
		lr.Kind = "optimization"
		lr.Placement = opt.Placement
		lr.Speedup = opt.Speedup
		cli.Ledger.AddResult(lr)
		printOptimization(name, opt, time.Since(start))
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d shared, %d corrupt\n",
			st.Hits, st.Misses, st.Shared, st.Corrupt)
	}
	cli.Finish()
	if failed > 0 {
		os.Exit(1)
	}
}

func printOptimization(name string, opt *drbw.Optimization, elapsed time.Duration) {
	fmt.Printf("=== %s %s", name, opt.Report.Config)
	if opt.Report.Input != "" {
		fmt.Printf(" input=%s", opt.Report.Input)
	}
	fmt.Printf(" (%.1fs)\n", elapsed.Seconds())
	if !opt.Detected {
		fmt.Printf("  no remote bandwidth contention detected; nothing to optimize\n\n")
		return
	}
	fmt.Printf("  contended channels: %s\n", strings.Join(opt.Report.Channels, ", "))
	for _, o := range opt.Report.Objects {
		fmt.Printf("  CF %5.1f%%  %s\n", 100*o.CF, o.Name)
	}
	fmt.Printf("  search: %d candidates, %d simulated, %d pruned, %d budget-aborted\n",
		opt.Candidates, opt.Explored, opt.Pruned, opt.AbortedRuns)
	if opt.Placement == "" {
		fmt.Printf("  no candidate completed\n\n")
		return
	}
	cmp := opt.Comparison
	fmt.Printf("  chosen placement: %s\n", opt.Placement)
	fmt.Printf("  speedup %.2fx (%.0f -> %.0f cycles), remote accesses %+.1f%%, DRAM latency %+.1f%%\n\n",
		opt.Speedup, cmp.BaseCycles, cmp.OptCycles,
		-100*cmp.RemoteReduction, -100*cmp.LatencyReduction)
}
