// drbw-bench regenerates the paper's tables and figures on the simulated
// platform.
//
// Usage:
//
//	drbw-bench [-quick] [-exp all|tableI|tableII|tableIII|fig3|tableIV|
//	            tableV|tableVI|tableVII|fig4|fig5|fig6|fig7|fig8|sp|
//	            blackscholes|llc|baselines|ablations]
//	           [-workers n] [-cpuprofile f] [-memprofile f]
//	           [-runtime-trace f] [-metrics]
//	           [-trace-out f [-trace-format tree]] [-ledger f]
//
// -quick reduces the training set, simulation window and sweeps (roughly
// 10x faster, same qualitative shapes). The full run regenerates the
// 512-case Table V sweep and takes several minutes; the sweep fans out
// over GOMAXPROCS workers through the detector's batch API, with seeds
// fixed per case so the tables match a serial run exactly. -workers sets
// GOMAXPROCS; -workers 1 runs everything serially. Sweep progress
// (N/M cases, elapsed, ETA) reports on stderr.
//
// The profiling flags capture the run for `go tool pprof` / `go tool trace`:
// -cpuprofile and -runtime-trace cover everything between flag parsing and
// exit, -memprofile writes an allocation profile at exit. They exist so
// hot-path regressions in the simulator can be diagnosed on the real
// workload rather than microbenchmarks. -metrics appends the final registry
// snapshot to the output, -trace-out writes the run's causal span tree
// (Chrome trace-event JSON, or a nested tree with -trace-format tree) and
// -ledger a machine-readable run ledger; SIGQUIT dumps the flight recorder
// and all goroutine stacks.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"drbw/internal/experiments"
	"drbw/internal/obs"
)

func main() {
	os.Exit(mainImpl())
}

// mainImpl exists so the profiling defers flush before the process exits;
// os.Exit directly in main would skip them.
func mainImpl() int {
	quick := flag.Bool("quick", false, "reduced sweeps and training set")
	exp := flag.String("exp", "all", "experiment to run (comma separated)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "GOMAXPROCS for every fan-out: the batch pool and each run's window (0 = the Go default, 1 = serial); never changes results")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	runtimeTrace := flag.String("runtime-trace", "", "write a runtime execution trace to this file")
	cli := obs.NewCLI().WithArtifacts("drbw-bench")
	flag.Parse()

	cli.Start()
	defer cli.Finish()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *runtimeTrace != "" {
		f, err := os.Create(*runtimeTrace)
		if err != nil {
			log.Printf("runtime-trace: %v", err)
			return 1
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			log.Printf("runtime-trace: %v", err)
			return 1
		}
		defer rtrace.Stop()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	// The work runs through run() so the profiling defers above flush even
	// on failure (log.Fatal would bypass them).
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	err := run(*quick, *exp, *seed)
	lr := obs.LedgerResult{Name: *exp, Kind: "bench"}
	if err != nil {
		lr.Error = err.Error()
	}
	cli.Ledger.AddResult(lr)
	if err != nil {
		obs.FlightFailure("bench.run", err)
		log.Print(err)
		return 1
	}
	return 0
}

func run(quick bool, exp string, seed uint64) error {
	start := time.Now()
	fmt.Fprintf(os.Stderr, "training classifier (quick=%v)...\n", quick)
	ctx, err := experiments.NewContext(quick, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trained in %.1fs\n\n", time.Since(start).Seconds())

	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[strings.ToLower(name)] }

	// section prints each successful table; the first error latches and
	// suppresses the rest, and run returns it at the end.
	var secErr error
	section := func(body string, err error) {
		if secErr != nil {
			return
		}
		if err != nil {
			secErr = err
			return
		}
		fmt.Println(body)
		fmt.Println(strings.Repeat("-", 78))
	}

	if sel("tableI") {
		section(ctx.TableI(), nil)
	}
	if sel("tableII") {
		section(ctx.TableII(), nil)
	}
	if sel("tableIII") {
		body, _, err := ctx.TableIII()
		section(body, err)
	}
	if sel("fig3") {
		section(ctx.Fig3(), nil)
	}

	var ev *experiments.Evaluation
	needEval := sel("tableIV") || sel("tableV") || sel("tableVI")
	if needEval {
		fmt.Fprintf(os.Stderr, "sweeping benchmark cases in parallel (this is the long part)...\n")
		ev, err = ctx.Evaluate()
		if err != nil {
			// Evaluate aggregates per-case errors and keeps every case that
			// succeeded; render the tables from the partial sweep.
			if ev == nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "warning: some cases failed, tables reflect the remainder:\n%v\n", err)
		}
	}
	if sel("tableIV") {
		body, err := ctx.TableIV(ev)
		section(body, err)
	}
	if sel("tableV") {
		section(ctx.TableV(ev), nil)
	}
	if sel("tableVI") {
		body, _ := ctx.TableVI(ev)
		section(body, nil)
	}
	if sel("tableVII") {
		body, _, err := ctx.TableVII()
		section(body, err)
	}
	if sel("fig4") {
		section(ctx.Fig4())
	}
	if sel("fig5") {
		section(ctx.Fig5())
	}
	if sel("fig6") {
		section(ctx.Fig6())
	}
	if sel("fig7") {
		section(ctx.Fig7())
	}
	if sel("fig8") {
		section(ctx.Fig8())
	}
	if sel("sp") {
		section(ctx.SPStudy())
	}
	if sel("blackscholes") {
		section(ctx.BlackscholesStudy())
	}
	if sel("llc") {
		section(ctx.LLCStudy())
	}
	if sel("baselines") {
		section(ctx.BaselineStudy())
	}
	if sel("ablations") {
		section(ctx.AblationFeatures())
		section(ctx.AblationTreeDepth())
		section(ctx.AblationSamplingPeriod())
		section(ctx.AblationChannelGranularity())
		section(ctx.AblationPrefetcher())
		section(ctx.AblationLatencyModel())
	}

	fmt.Fprintf(os.Stderr, "total %.1fs\n", time.Since(start).Seconds())
	return secErr
}
