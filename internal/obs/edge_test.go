package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestProgressZeroTotal is the regression test for the divide-by-zero in
// Progress.emit: a zero-total batch must report plain counts, never Inf or
// NaN percentages/ETAs.
func TestProgressZeroTotal(t *testing.T) {
	var buf bytes.Buffer
	SetProgressWriter(&buf)
	t.Cleanup(func() { SetProgressWriter(nil) })

	p := StartProgress("test.empty", 0)
	p.Done()
	p.Done()
	p.Finish()
	out := buf.String()
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("zero-total progress printed Inf/NaN: %q", out)
	}
	if !strings.Contains(out, "test.empty: 2 done") {
		t.Fatalf("missing count-only line in %q", out)
	}
}

// TestHistogramEmpty: an unobserved histogram snapshots to all zeros.
func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	s := r.Histogram("test.empty").snapshot()
	if s.Count != 0 || s.Sum != 0 || s.P50 != 0 || s.P90 != 0 || s.P99 != 0 {
		t.Fatalf("empty histogram snapshot = %+v", s)
	}
	if len(s.Buckets) != 0 {
		t.Fatalf("empty histogram has buckets: %+v", s.Buckets)
	}
}

// TestHistogramSingleBucket: every observation in one bucket keeps all
// quantiles inside that bucket's bounds, ordered.
func TestHistogramSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.single")
	for i := 0; i < 1000; i++ {
		h.Observe(3e-6) // bucket with bounds (2e-6, 4e-6]
	}
	s := h.snapshot()
	if len(s.Buckets) != 1 {
		t.Fatalf("buckets = %+v, want exactly one", s.Buckets)
	}
	lo, hi := 2e-6, 4e-6
	for _, q := range []float64{s.P50, s.P90, s.P99} {
		if q < lo || q > hi {
			t.Fatalf("quantile %g outside bucket (%g, %g]", q, lo, hi)
		}
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99) {
		t.Fatalf("quantiles out of order: %g %g %g", s.P50, s.P90, s.P99)
	}
	if s.Min != 3e-6 || s.Max != 3e-6 {
		t.Fatalf("min/max = %g/%g, want 3e-6", s.Min, s.Max)
	}
}

// TestHistogramAllSameValue: identical observations at the first bucket
// boundary; min == max == value and the average is exact.
func TestHistogramAllSameValue(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.same")
	const v = 1e-6 // exactly histFirstLE: bucket 0
	for i := 0; i < 64; i++ {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 64 || s.Min != v || s.Max != v {
		t.Fatalf("snapshot = %+v", s)
	}
	if math.Abs(s.Avg-v) > 1e-9*v {
		t.Fatalf("avg = %g, want ~%g", s.Avg, v)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].LE != v || s.Buckets[0].N != 64 {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for _, q := range []float64{s.P50, s.P90, s.P99} {
		if q < 0 || q > v {
			t.Fatalf("quantile %g outside [0, %g]", q, v)
		}
	}
}

// TestSnapshotUnderConcurrentWriters marshals snapshots while writers
// hammer every metric type. Run under -race in CI; each snapshot must be
// valid JSON and internally consistent (bucket total == count is NOT
// guaranteed mid-write, but the marshal itself must never tear).
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc.counter")
			g := r.Gauge("conc.gauge")
			h := r.Histogram("conc.hist")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Max(float64(i))
				h.Observe(float64(i%100+1) * 1e-6)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatalf("marshal %d: %v", i, err)
		}
		var back Snapshot
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("snapshot %d does not parse: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: totals must now be exact.
	s := r.Snapshot()
	hs := s.Histograms["conc.hist"]
	var bucketTotal uint64
	for _, b := range hs.Buckets {
		bucketTotal += b.N
	}
	if int64(bucketTotal) != hs.Count {
		t.Fatalf("bucket total %d != count %d after quiesce", bucketTotal, hs.Count)
	}
	if s.Counters["conc.counter"] != hs.Count {
		t.Fatalf("counter %d != observations %d", s.Counters["conc.counter"], hs.Count)
	}
}

// TestProgressShortBatchPrintsFinalLineOnly checks that the throttle starts
// with the batch: four items finished at once print exactly one line, the
// final one, instead of also printing the first item's.
func TestProgressShortBatchPrintsFinalLineOnly(t *testing.T) {
	var buf bytes.Buffer
	SetProgressWriter(&buf)
	t.Cleanup(func() { SetProgressWriter(nil) })

	p := StartProgress("test.short", 4)
	for i := 0; i < 4; i++ {
		p.Done()
	}
	p.Finish()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "test.short: 4/4 (100%)") {
		t.Fatalf("short batch printed %q, want only its final line", buf.String())
	}
}
