package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"drbw"
	"drbw/internal/core"
	"drbw/internal/dtree"
	"drbw/internal/engine"
	"drbw/internal/topology"
)

const (
	// setupReps is how many times a workload generates its inputs; the
	// median of those times is the input share of setup_s.
	setupReps = 3
	// smokeWindow is the simulation window of -smoke training and runs.
	smokeWindow = 2048
)

// bench is one process's trained tool plus everything the traced rebuilds
// need to call the layers directly with the tool's own settings.
type bench struct {
	opts  options
	host  hostInfo
	dir   string // this process's scratch directory
	tool  *drbw.Tool
	train time.Duration

	machine *topology.Machine
	tree    *dtree.Tree
	ecfg    engine.Config
	det     *core.Detector
}

// newBench trains the classifier (the shared half of every workload's
// set-up) and rebuilds the tool's detector from the saved model, so the
// traced runs classify with exactly the tree the public calls use.
func newBench(opts options) (*bench, error) {
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.workDir, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{opts: opts, host: fingerprintHost(), dir: dir, machine: topology.XeonE5_4650()}
	cfg := drbw.Config{Seed: opts.seed}
	// The engine configuration drbw.Train derives from cfg, for the traced
	// rebuilds; a drift shows up as a rebuilt report that differs from the
	// public call's.
	b.ecfg = core.DefaultEngineConfig(opts.seed)
	if opts.smoke {
		cfg.Quick = true
		cfg.Window = smokeWindow
		b.ecfg.Window = smokeWindow
	}
	start := time.Now()
	b.tool, err = drbw.Train(cfg)
	b.train = time.Since(start)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("training: %w", err)
	}
	if b.tree, err = b.savedTree(); err != nil {
		b.close()
		return nil, err
	}
	b.det = core.NewDetector(b.tree, b.ecfg)
	return b, nil
}

// savedTree round-trips the tool through its saved model to get at the
// decision tree.
func (b *bench) savedTree() (*dtree.Tree, error) {
	path := filepath.Join(b.dir, "model.json")
	if err := b.tool.Save(path); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var model struct {
		Tree json.RawMessage `json:"tree"`
	}
	if err := json.Unmarshal(data, &model); err != nil {
		return nil, fmt.Errorf("reading saved model: %w", err)
	}
	tree := new(dtree.Tree)
	if err := json.Unmarshal(model.Tree, tree); err != nil {
		return nil, fmt.Errorf("reading saved tree: %w", err)
	}
	return tree, nil
}

func (b *bench) close() { os.RemoveAll(b.dir) }

// runWorkload sets the workload up setupReps times (once with -smoke),
// runs its timed phase (or, with tracing, an untraced and a traced phase),
// prints the report and returns the metrics.
func (b *bench) runWorkload(w workload, out io.Writer) (*result, error) {
	dir := filepath.Join(b.dir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := setupReps
	if b.opts.smoke {
		n = 1
	}
	var reps []float64
	var in *inputs
	for i := 0; i < n; i++ {
		start := time.Now()
		var err error
		if in, err = w.inputs(b, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		reps = append(reps, time.Since(start).Seconds())
	}
	setup := b.train.Seconds() + median(reps)
	ops, err := w.ops(b, in)
	if err != nil {
		return nil, fmt.Errorf("computing check references: %w", err)
	}

	fmt.Fprintf(out, "\n== %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "seed %d, %d operations per round, %s timed, closed loop with one caller\n", b.opts.seed, len(ops), b.opts.seconds)
	fmt.Fprintf(out, "setup   train %.3f s + inputs %s s (median of %d) = %.3f s\n", b.train.Seconds(), fmtList(reps, "%.3f"), n, setup)

	res := &result{workload: w.name}
	ck := newChecker(len(ops), out)
	if !b.opts.trace {
		ph := b.runPhase(ops, ck, b.opts.seconds, false)
		res.attempted, res.failed = ck.attempted, ck.failed
		res.metrics = endToEnd(ph, setup, out)
	} else {
		half := b.opts.seconds / 2
		plain := b.runPhase(ops, ck, half, false)
		traced := b.runPhase(ops, ck, b.opts.seconds-half, true)
		res.attempted, res.failed = ck.attempted, ck.failed
		if res.metrics, err = b.perLayer(w, plain, traced, out); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(out, "checks  %d operations attempted, %d failed\n", res.attempted, res.failed)
	return res, nil
}

// endToEnd derives and prints the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase, setup float64, out io.Writer) map[string]metric {
	q1, q3 := quartiles(ph.latMS)
	speedup := 1.0 // no placement applied: the profiled placement against itself
	if len(ph.speedups) > 0 {
		speedup = geomean(ph.speedups)
	}
	ms := map[string]metric{
		"setup_s":           {setup, "s"},
		"ops_per_s":         {median(ph.roundRates), "1/s"},
		"latency_p50_ms":    {median(ph.latMS), "ms"},
		"msamples_per_s":    {float64(ph.samples) / ph.elapsed.Seconds() / 1e6, "Msamples/s"},
		"alloc_mb_per_op":   {float64(ph.allocBytes) / float64(ph.ops) / 1e6, "MB"},
		"heap_inuse_mb":     {float64(ph.heapInuse) / 1e6, "MB"},
		"placement_speedup": {speedup, "x"},
	}
	notes := map[string]string{
		"ops_per_s":      fmt.Sprintf("rounds %s, IQR %.1f%%", fmtList(ph.roundRates, "%.4g"), 100*relIQR(ph.roundRates)),
		"latency_p50_ms": fmt.Sprintf("n=%d, quartiles %.4g..%.4g", len(ph.latMS), q1, q3),
	}
	fmt.Fprintf(out, "timed   %d rounds, %d operations in %.3f s\n", len(ph.roundRates), ph.ops, ph.elapsed.Seconds())
	printMetrics(out, ms, notes)
	if v, beyond, ok := percentile(ph.latMS, 90); ok {
		fmt.Fprintf(out, "  %-44s %14.6g %-12s n=%d, %d beyond\n", "latency_p90_ms", v, "ms", len(ph.latMS), beyond)
	} else {
		fmt.Fprintf(out, "  %-44s %14s %-12s n=%d: fewer than %d samples beyond p90\n", "latency_p90_ms", "-", "ms", len(ph.latMS), minBeyond)
	}
	if ph.simAccesses > 0 {
		fmt.Fprintf(out, "  %-44s %14.6g %-12s\n", "sim_maccesses_per_s", float64(ph.simAccesses)/ph.elapsed.Seconds()/1e6, "Maccesses/s")
	}
	return ms
}

// fmtList renders xs with one format, space-separated, in brackets.
func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// hostInfo fingerprints the machine and build a number came from, so
// numbers from different hosts are never compared silently.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Modified   string `json:"modified"`
}

func fingerprintHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value
			}
		}
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host    cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s modified=%s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Revision, h.Modified)
}
