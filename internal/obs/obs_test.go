package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one striped counter from many goroutines;
// the fold must account for every increment (run under -race in CI).
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.counter")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	// The handle is stable: a second lookup returns the same counter.
	if r.Counter("test.counter") != c {
		t.Fatal("second lookup returned a different counter")
	}
}

// TestHistogramConcurrent checks that no observation is lost and the
// aggregates are exact under concurrency.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.hist")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w+1) * 1e-4)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	want := 0.0
	for w := 1; w <= workers; w++ {
		want += float64(w) * 1e-4 * per
	}
	if got := h.Sum(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	s := h.snapshot()
	if s.Min != 1e-4 || s.Max != 8e-4 {
		t.Fatalf("min/max = %g/%g, want 1e-4/8e-4", s.Min, s.Max)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b.N
	}
	if bucketTotal != workers*per {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, workers*per)
	}
	// Quantiles must be ordered and inside the observed range's bucket
	// bounds (the estimator interpolates within a bucket).
	if !(s.P50 <= s.P90 && s.P90 <= s.P99) {
		t.Fatalf("quantiles out of order: p50=%g p90=%g p99=%g", s.P50, s.P90, s.P99)
	}
	if s.P99 > histLE(histBuckets-1) {
		t.Fatalf("p99 = %g beyond bucket range", s.P99)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test.gauge")
	g.Set(2.5)
	if v := g.Value(); v != 2.5 {
		t.Fatalf("Set/Value = %g", v)
	}
	g.Max(0.5) // lower: no-op
	g.Max(3.0)
	if v := g.Value(); v != 3.0 {
		t.Fatalf("Max = %g", v)
	}
}

// TestSnapshotDeterminism requires two marshals of the same state to be
// byte-identical — the -metrics contract — and to carry every metric
// under its own name.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.counter").Add(7)
	r.Counter("a.counter").Add(3)
	r.Gauge("z.gauge").Set(0.25)
	h := r.Histogram("m.hist")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 1e-5)
	}
	one, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	two, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, two) {
		t.Fatalf("snapshots differ:\n%s\n%s", one, two)
	}
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters["a.counter"] != 3 || s.Counters["b.counter"] != 7 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges["z.gauge"] != 0.25 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms["m.hist"].Count != 100 {
		t.Fatalf("histograms = %v", s.Histograms)
	}
}

// TestSpanRecords checks that finishing a Progress records its duration
// into the default registry's span histogram and counter.
func TestSpanRecords(t *testing.T) {
	const name = "test.span.phase"
	before := Default.Snapshot()
	p := StartProgress(name, 1)
	time.Sleep(time.Millisecond)
	p.Done()
	d := p.Finish()
	if d <= 0 {
		t.Fatalf("duration = %v", d)
	}
	after := Default.Snapshot()
	hb, ha := before.Histograms["span."+name+".seconds"], after.Histograms["span."+name+".seconds"]
	if ha.Count-hb.Count != 1 {
		t.Fatalf("span histogram count delta = %d", ha.Count-hb.Count)
	}
	if ha.Sum-hb.Sum < 0.001 {
		t.Fatalf("span histogram sum delta = %g, want >= 1ms", ha.Sum-hb.Sum)
	}
	if after.Counters["span."+name+".count"]-before.Counters["span."+name+".count"] != 1 {
		t.Fatal("span counter not bumped")
	}
}

// TestProgress checks the N/M / elapsed / ETA reporting and that the
// default (no writer) stays silent.
func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	SetProgressWriter(&buf)
	t.Cleanup(func() { SetProgressWriter(nil) })

	p := StartProgress("test.batch", 3)
	p.Done()
	p.Done()
	p.Done()
	p.Finish()
	out := buf.String()
	if !strings.Contains(out, "test.batch: 3/3 (100%)") {
		t.Fatalf("missing final progress line in %q", out)
	}
	if !strings.Contains(out, "elapsed") {
		t.Fatalf("missing elapsed in %q", out)
	}

	SetProgressWriter(nil)
	buf.Reset()
	p = StartProgress("test.quiet", 1)
	p.Done()
	p.Finish()
	if buf.Len() != 0 {
		t.Fatalf("progress wrote %q with no writer configured", buf.String())
	}
}

// TestProgressConcurrent drives Done from many goroutines; every line must
// be well-formed and the final 64/64 line must appear.
func TestProgressConcurrent(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := lockedWriter{mu: &mu, w: &buf}
	SetProgressWriter(w)
	t.Cleanup(func() { SetProgressWriter(nil) })

	const n = 64
	p := StartProgress("test.parallel", n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Done()
		}()
	}
	wg.Wait()
	p.Finish()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "test.parallel: 64/64") {
		t.Fatalf("missing final line in %q", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
