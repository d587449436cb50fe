package core

import (
	"sync/atomic"
	"testing"

	"drbw/internal/obs"
)

// TestParallelForLabeledMetrics checks the pool instrumentation: every
// case lands in the latency histogram and the wrapping span records once.
func TestParallelForLabeledMetrics(t *testing.T) {
	const n = 24
	label := "test.pool"
	before := obs.Default.Snapshot()
	var ran atomic.Int64
	ParallelForLabeledWorker(n, label, func(i, _ int) { ran.Add(1) })
	after := obs.Default.Snapshot()

	if ran.Load() != n {
		t.Fatalf("ran %d of %d cases", ran.Load(), n)
	}
	hb := before.Histograms["pool."+label+".case_seconds"].Count
	ha := after.Histograms["pool."+label+".case_seconds"].Count
	if ha-hb != n {
		t.Fatalf("case_seconds count delta = %d, want %d", ha-hb, n)
	}
	if d := after.Counters["span."+label+".count"] - before.Counters["span."+label+".count"]; d != 1 {
		t.Fatalf("span count delta = %d, want 1", d)
	}

	// n = 0 must be a no-op (no span, no histogram entries).
	ParallelForLabeledWorker(0, "test.pool.empty", func(i, _ int) { t.Fatal("called") })
	if _, ok := obs.Default.Snapshot().Histograms["pool.test.pool.empty.case_seconds"]; ok {
		t.Fatal("empty pool registered a histogram")
	}
}
