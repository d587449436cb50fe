// Package obs is DR-BW's observability substrate: a zero-dependency
// metrics registry (counters, gauges, histograms), progress-timed batches,
// causal trace spans, a flight recorder of recent events, and a run
// ledger. CLI gives every command the same setup: a -metrics snapshot at
// exit, and on the commands that take them, a -trace-out span trace and a
// -ledger audit record.
//
// Everything is safe for concurrent use. Recording is designed for the
// simulator's hot paths: counters stripe their cells across cache lines so
// concurrent batch workers do not serialize on one word, gauges and
// histogram buckets are single atomics, and the engine itself records into
// a plain per-run stats struct that is merged here only at phase
// boundaries (see DESIGN.md, "Observability"), so the per-access loop
// carries no instrumentation at all.
//
// Snapshots are deterministic: metric names are emitted in sorted order and
// every derived value (quantiles, averages) is a pure function of the
// recorded data, so two identical runs produce byte-identical -metrics
// output.
package obs

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// stripes is the number of independent cells a Counter spreads its
// increments over. Must be a power of two.
const stripes = 8

// cell is one cache-line-padded counter stripe.
type cell struct {
	v atomic.Int64
	_ [56]byte // pad to 64 bytes so stripes do not false-share
}

// Counter is a monotonically increasing striped atomic counter. The stripe
// is picked with the runtime's per-P random source, so concurrent writers
// mostly hit distinct cache lines; Value folds the stripes.
type Counter struct {
	cells [stripes]cell
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	c.cells[rand.Uint32()&(stripes-1)].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket geometry: exponential base-2 boundaries starting at
// histFirstLE. The default geometry covers 1µs .. ~4295s, which spans
// everything the pipeline times (per-case latencies, phase spans) when
// observations are in seconds; raw counts (sample latencies in cycles)
// land in the overflow tail and are still summarized exactly by
// count/sum/min/max.
const (
	histBuckets = 33
	histFirstLE = 1e-6
)

// histLE returns the inclusive upper bound of bucket i.
func histLE(i int) float64 { return histFirstLE * float64(uint64(1)<<uint(i)) }

// Histogram records a distribution of float64 observations into fixed
// exponential buckets with atomic cells; the buckets themselves act as the
// sharding, and the scalar aggregates are CAS-maintained.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Uint64 // last cell is the overflow tail
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // stored as math.Float64bits; valid when count > 0
	maxBits atomic.Uint64
	once    sync.Once
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.once.Do(func() {
		h.minBits.Store(math.Float64bits(math.Inf(1)))
		h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	})
	i := 0
	if v > histFirstLE {
		i = int(math.Ceil(math.Log2(v / histFirstLE)))
		if i > histBuckets {
			i = histBuckets
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bucket is one non-empty histogram bucket in a snapshot. LE is the
// inclusive upper bound; the overflow tail reports LE as +Inf.
type Bucket struct {
	LE float64 `json:"le"`
	N  uint64  `json:"n"`
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Avg     float64  `json:"avg"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// snapshot captures the histogram. Concurrent observers may land between
// the bucket reads; the result is still a valid recent state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.Sum()}
	if s.Count == 0 {
		return s
	}
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	s.Avg = s.Sum / float64(s.Count)
	var counts [histBuckets + 1]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] > 0 {
			le := math.Inf(1)
			if i < histBuckets {
				le = histLE(i)
			}
			s.Buckets = append(s.Buckets, Bucket{LE: le, N: counts[i]})
		}
	}
	s.P50 = quantile(&counts, total, 0.50)
	s.P90 = quantile(&counts, total, 0.90)
	s.P99 = quantile(&counts, total, 0.99)
	return s
}

// quantile estimates the q-quantile from the bucket counts, interpolating
// linearly inside the containing bucket.
func quantile(counts *[histBuckets + 1]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo := 0.0
			if i > 0 {
				lo = histLE(i - 1)
			}
			hi := histLE(i)
			if i >= histBuckets {
				return lo // overflow tail: report its lower bound
			}
			frac := (rank - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return histLE(histBuckets - 1)
}

// Registry holds named metrics. The zero value is not usable; use
// NewRegistry or the package-level Default.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Default is the process-wide registry every instrumented layer records
// into; the -metrics block and the ledger export its snapshot.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use. Handles are
// stable: callers may cache them and Add without further lookups.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time export of a registry. encoding/json renders
// map keys sorted, so marshaling a snapshot is deterministic.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}
