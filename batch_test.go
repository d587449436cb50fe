package drbw_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"drbw"
)

// TestAnalyzeAllMatchesSerial checks the determinism guarantee: batch
// analysis over the worker pool renders byte-identical reports to serial
// Analyze calls, because each case's randomness derives only from its own
// seed.
func TestAnalyzeAllMatchesSerial(t *testing.T) {
	tl := sharedTool(t)
	cases := drbw.StandardCases("native")[:4]
	for i := range cases {
		cases[i].Seed = uint64(300 + i*17)
	}

	serial := make([]string, len(cases))
	for i, c := range cases {
		rep, err := tl.Analyze("Streamcluster", c)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = rep.String()
	}

	reports, err := tl.AnalyzeAll("Streamcluster", cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(cases) {
		t.Fatalf("%d reports for %d cases", len(reports), len(cases))
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("case %d: nil report without error", i)
		}
		if rep.String() != serial[i] {
			t.Errorf("case %d: batch report differs from serial:\n--- batch ---\n%s--- serial ---\n%s",
				i, rep.String(), serial[i])
		}
	}
}

// TestBatchPartialFailure checks a failing case does not take the batch
// down: the other cases' reports come back, and the error names exactly
// the failed case.
func TestBatchPartialFailure(t *testing.T) {
	tl := sharedTool(t)
	cases := []drbw.Case{
		{Input: "native", Threads: 16, Nodes: 4, Seed: 400},
		{Input: "native", Threads: 7, Nodes: 2, Seed: 401}, // 7 threads do not divide over 2 nodes
		{Input: "native", Threads: 32, Nodes: 4, Seed: 402},
	}
	reports, err := tl.AnalyzeAll("Streamcluster", cases)
	if err == nil {
		t.Fatal("invalid case accepted")
	}
	var be *drbw.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *drbw.BatchError", err)
	}
	if len(be.Cases) != 1 || be.Cases[0].Index != 1 {
		t.Fatalf("failed cases: %+v, want exactly index 1", be.Cases)
	}
	if reports[0] == nil || reports[2] == nil {
		t.Error("successful cases lost their reports")
	}
	if reports[1] != nil {
		t.Error("failed case produced a report")
	}
}

// TestEvaluateAllCarriesGroundTruth checks the batch evaluate path runs
// the interleave probe per case.
func TestEvaluateAllCarriesGroundTruth(t *testing.T) {
	tl := sharedTool(t)
	cases := []drbw.Case{
		{Input: "native", Threads: 32, Nodes: 4, Seed: 410},
		{Input: "native", Threads: 16, Nodes: 2, Seed: 411},
	}
	reports, err := tl.EvaluateAll("Streamcluster", cases)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if !rep.Evaluated {
			t.Errorf("case %d: ground truth missing", i)
		}
	}
	if !reports[0].Actual {
		t.Error("dense streamcluster case should be actually contended")
	}
}

func TestAnalyzeAllUnknownBenchmark(t *testing.T) {
	tl := sharedTool(t)
	if _, err := tl.AnalyzeAll("nope", []drbw.Case{{Threads: 16, Nodes: 2}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestBatchParallelNotSlower is the batch-scaling smoke test: with the
// worker pool enabled, EvaluateAll over several cases must not be
// meaningfully slower than the same sweep forced serial. On a multi-core
// host it should be a large speedup (the bench gate checks the ratio); here
// we only pin that parallel dispatch costs nothing, so the test stays
// meaningful on one core too.
func TestBatchParallelNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	tl := sharedTool(t)
	cases := drbw.StandardCases("native")[:4]
	for i := range cases {
		cases[i].Seed = uint64(500 + i*13)
	}
	// Serial and parallel trials alternate (S, P, S, P) and each side keeps
	// its best run, so a burst of load from other tests lands on both
	// sides instead of on one side's only trials.
	// sweep runs at GOMAXPROCS=procs (0 keeps the host's) and restores it.
	sweep := func(procs int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		start := time.Now()
		if _, err := tl.EvaluateAll("Streamcluster", cases); err != nil {
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
	// still catching a pool that serializes behind a lock (which showed up
	// as parallel >> serial before the atomic-dispatch rewrite).
	if parallel > serial+serial/2 {
		t.Errorf("parallel sweep %v is slower than serial %v beyond tolerance", parallel, serial)
	}
}
