// Command drbw-bench is DR-BW's end-to-end benchmark. It times the flows a
// performance engineer waits for — live detection, offline analysis of a
// recording, trace ingest, and the closed-loop placement search — and,
// in a separate traced run, breaks each flow down into the layers that do
// the work.
//
// Usage (from the checkout root):
//
//	bash bench/run.sh --workload detect --seed 1 --seconds 10 --trace 0
//	go -C bench run . -workload all -seed 7
//	go -C bench run . -workload offline-indexed -trace-out spans.json
//
// The benchmark is one process and a closed loop with a single caller: the
// next operation starts only after the previous one returns. GOMAXPROCS,
// the engine's workers and the batch pool keep their defaults, so the
// process uses as many threads as the host has CPUs. The last line of
// standard output is a JSON object with the keys correct, attempted,
// failed and metrics; every line before it is the human-readable report.
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// workDirRoot is where the benchmark keeps its scratch files (the trained
// model, recordings, span trees), relative to the working directory. The
// run wrapper builds into the same directory, and .gitignore names it.
const workDirRoot = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams injected: it returns 0 after printing a
// result with no failed operation, 1 after printing one with failures, and
// 2 without printing a result when the flags are bad or set-up fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drbw-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of the training set and of every case")
	seconds := fs.Int("seconds", 15, "timed seconds per workload; a traced run gives half to the untraced phase and half to the traced one")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "write the traced run's span tree to this file (implies -trace 1)")
	smoke := fs.Bool("smoke", false, "quick training, 2 cases per workload, one set-up and one round: checks the benchmark, measures nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "drbw-bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "drbw-bench: -seconds must be at least 1")
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "drbw-bench: -trace must be 0 or 1")
		return 2
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "drbw-bench:", err)
		return 2
	}
	opts := options{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1 || *traceOut != "",
		traceOut: *traceOut,
		smoke:    *smoke,
		workDir:  workDirRoot,
		multi:    len(ws) > 1,
	}
	b, err := newBench(opts)
	if err != nil {
		fmt.Fprintln(stderr, "drbw-bench:", err)
		return 2
	}
	defer b.close()
	fmt.Fprintln(stdout, b.host.String())

	var results []*result
	for _, w := range ws {
		res, err := b.runWorkload(w, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "drbw-bench: %s: %v\n", w.name, err)
			return 2
		}
		results = append(results, res)
	}
	line, err := json.Marshal(summary(results))
	if err != nil {
		fmt.Fprintln(stderr, "drbw-bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	for _, r := range results {
		if r.failed > 0 {
			return 1
		}
	}
	return 0
}

// options are one invocation's settings.
type options struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceOut string
	smoke    bool
	workDir  string
	// multi is set when one invocation runs several workloads; each then
	// writes its span tree to its own file.
	multi bool
}

// selectWorkloads resolves -workload.
func selectWorkloads(name string) ([]workload, error) {
	all := allWorkloads()
	if name == "all" {
		return all, nil
	}
	for _, w := range all {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	if name == "" {
		return nil, errors.New("-workload is required")
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads() {
		out = append(out, w.name)
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome.
type result struct {
	workload          string
	attempted, failed int
	metrics           map[string]metric
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary folds the workloads' results into the final line. With several
// workloads the metric names carry a "<workload>/" prefix.
func summary(results []*result) resultLine {
	out := resultLine{Metrics: map[string]metric{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for name, m := range r.metrics {
			if len(results) > 1 {
				name = r.workload + "/" + name
			}
			out.Metrics[name] = m
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out
}

// printMetrics renders metrics as an aligned table, sorted by name.
func printMetrics(w io.Writer, ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "  %-44s %14.6g %-12s %s\n", n, m.Value, m.Unit, notes[n])
	}
}
