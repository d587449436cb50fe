package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"drbw/internal/program"
	"drbw/internal/topology"
	"drbw/internal/workloads"
)

// render prints everything a detection reports — verdict, ground truth,
// retained samples, weight, timeline and diagnosis — so two detections
// that render equal are byte-identical results.
func render(dn *Detection) string {
	return fmt.Sprintf("%+v\n%v\n%v\n%+v\n%+v", dn.CaseResult, dn.Samples, dn.Weight, dn.Timeline, *dn.Diagnose())
}

// streamclusterJobs returns one Streamcluster native job per config, each
// with its own seed.
func streamclusterJobs(t *testing.T, seed uint64, cfgs ...program.Config) []BatchJob {
	t.Helper()
	sc, ok := workloads.ByName("Streamcluster")
	if !ok {
		t.Fatal("missing Streamcluster")
	}
	jobs := make([]BatchJob, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Input, cfg.Seed = "native", seed+uint64(i)*17
		jobs[i] = BatchJob{Builder: sc.Builder, Cfg: cfg}
	}
	return jobs
}

// TestEvaluateAllMatchesSerial checks the determinism guarantee: the
// batch sweep renders byte-identical results to serial Evaluate calls at
// pool widths 1 and 2, because each case's randomness derives only from
// its own seed, and every result carries its ground-truth probe.
func TestEvaluateAllMatchesSerial(t *testing.T) {
	_, d := trainReduced(t)
	m := topology.XeonE5_4650()
	jobs := streamclusterJobs(t, 300,
		program.Config{Threads: 32, Nodes: 4},
		program.Config{Threads: 16, Nodes: 2},
		program.Config{Threads: 16, Nodes: 4})
	serial := make([]string, len(jobs))
	for i, j := range jobs {
		dn, err := d.Evaluate(j.Builder, m, j.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = render(dn)
	}
	for _, workers := range []int{1, 2} {
		setProcs(t, workers)
		got := make([]string, len(jobs))
		errs := make([]error, len(jobs))
		actual := make([]bool, len(jobs))
		d.EvaluateAll(m, jobs, func(i int, dn *Detection, err error) {
			if errs[i] = err; err != nil {
				return
			}
			got[i], actual[i] = render(dn), dn.Actual
			if !dn.Evaluated {
				errs[i] = fmt.Errorf("ground truth missing")
			}
		})
		for i := range jobs {
			if errs[i] != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, errs[i])
			}
			if got[i] != serial[i] {
				t.Errorf("workers=%d job %d: batch result differs from serial Evaluate:\n--- batch ---\n%.2000s\n--- serial ---\n%.2000s",
					workers, i, got[i], serial[i])
			}
		}
		if !actual[0] {
			t.Errorf("workers=%d: dense Streamcluster T32-N4 should be actually contended", workers)
		}
	}
}

// TestEvaluateAllPartialFailure checks a failing job does not take the
// sweep down: it fills only its own Err, and the other jobs' detections
// come back.
func TestEvaluateAllPartialFailure(t *testing.T) {
	_, d := trainReduced(t)
	m := topology.XeonE5_4650()
	jobs := streamclusterJobs(t, 400,
		program.Config{Threads: 16, Nodes: 4},
		program.Config{Threads: 7, Nodes: 2}, // 7 threads do not divide over 2 nodes
		program.Config{Threads: 32, Nodes: 4})
	for _, workers := range []int{1, 2} {
		setProcs(t, workers)
		visited := make([]bool, len(jobs))
		d.EvaluateAll(m, jobs, func(i int, dn *Detection, err error) {
			visited[i] = true
			if failed := i == 1; (err != nil) != failed || (dn == nil) != failed {
				t.Errorf("workers=%d job %d: err %v, detection %v; want only job 1 to fail", workers, i, err, dn != nil)
			}
		})
		for i, v := range visited {
			if !v {
				t.Errorf("workers=%d job %d: never visited", workers, i)
			}
		}
	}
}

// TestEvaluateAllParallelNotSlower is the batch-scaling smoke test: with
// the worker pool enabled, EvaluateAll over several cases must not be
// meaningfully slower than the same sweep forced serial. On a multi-core
// host it should be a large speedup (the bench gate checks the ratio);
// here we only pin that parallel dispatch costs nothing, so the test
// stays meaningful on one core too.
func TestEvaluateAllParallelNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	_, d := trainReduced(t)
	m := topology.XeonE5_4650()
	jobs := streamclusterJobs(t, 500,
		program.Config{Threads: 32, Nodes: 4},
		program.Config{Threads: 16, Nodes: 2},
		program.Config{Threads: 16, Nodes: 4},
		program.Config{Threads: 32, Nodes: 2})
	// Serial and parallel trials alternate (S, P, S, P) and each side keeps
	// its best run, so a burst of load from other tests lands on both
	// sides instead of on one side's only trials.
	// sweep runs at GOMAXPROCS=procs (0 keeps the host's) and restores it.
	sweep := func(procs int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		start := time.Now()
		errs := make([]error, len(jobs))
		d.EvaluateAll(m, jobs, func(i int, _ *Detection, err error) { errs[i] = err })
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial, parallel := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for trial := 0; trial < 2; trial++ {
		serial = min(serial, sweep(1))
		parallel = min(parallel, sweep(0))
	}
	t.Logf("serial %v, parallel %v (GOMAXPROCS=%d)", serial, parallel, runtime.GOMAXPROCS(0))
	// 1.5x tolerance absorbs scheduler noise on single-core CI boxes, while
	// still catching a pool that serializes behind a lock.
	if parallel > serial+serial/2 {
		t.Errorf("parallel sweep %v is slower than serial %v beyond tolerance", parallel, serial)
	}
}
