package diagnose

import (
	"fmt"
	"math"
	"strings"

	"drbw/internal/pebs"
	"drbw/internal/xsum"
)

// Bucket is one time slice of a profiled run.
type Bucket struct {
	Start, End float64 // cycles
	// Samples is the weighted sample count in the slice.
	Samples float64
	// RemoteSamples counts remote-DRAM samples.
	RemoteSamples float64
	// AvgRemoteLatency is the mean latency of the slice's remote samples
	// (0 when there are none).
	AvgRemoteLatency float64
}

// Timeline buckets a run's samples into n equal time slices — the
// profiler-style view of *when* remote pressure happened (AMG's solve phase
// lights up while init stays dark). weight scales kept samples to true
// counts. Timeline is the slice form of TimelineAccumulator and is defined
// as exactly that: observe, add, finalize.
func Timeline(samples []pebs.Sample, n int, weight float64) []Bucket {
	acc := NewTimelineAccumulator(n, weight)
	acc.Observe(samples)
	acc.Add(samples)
	return acc.Buckets()
}

// TimelineAccumulator is the streaming form of Timeline. Bucket boundaries
// need the global time range, so a streaming caller first states it —
// feeding every chunk to Observe, or the whole range at once to
// ObserveRange — then streams the samples through Add and reads Buckets.
//
// Counting is mergeable for shard-parallel analysis: each worker counts
// into its own Fork clone, merged back with Merge. Counts are integers and
// the latency mass is an exact xsum total, so the result is a function of
// the sample multiset alone — chunk order, shard boundaries and merge
// shape never show in the output, and any streamed or sharded schedule is
// bit-identical to Timeline over the whole slice. State stays bounded by
// the bucket count.
type TimelineAccumulator struct {
	n          int
	weight     float64
	minT, maxT float64
	total      int

	// Pass-two state, built when the bucket geometry freezes.
	frozen  bool
	start   float64 // frozen minT
	span    float64
	samples []int64
	remote  []int64
	lat     []xsum.Sum
}

// NewTimelineAccumulator prepares an n-bucket timeline. weight scales kept
// samples to true counts; non-positive means 1.
func NewTimelineAccumulator(n int, weight float64) *TimelineAccumulator {
	if weight <= 0 {
		weight = 1
	}
	return &TimelineAccumulator{n: n, weight: weight, minT: math.Inf(1), maxT: math.Inf(-1)}
}

// Observe widens the time range to cover a chunk.
func (t *TimelineAccumulator) Observe(samples []pebs.Sample) {
	t.total += len(samples)
	for i := range samples {
		if samples[i].Time < t.minT {
			t.minT = samples[i].Time
		}
		if samples[i].Time > t.maxT {
			t.maxT = samples[i].Time
		}
	}
}

// ObserveRange folds an already-summarized chunk into the range: n
// samples spanning [minT, maxT], as an index footer or a pre-scan states
// them.
func (t *TimelineAccumulator) ObserveRange(minT, maxT float64, n int) {
	if n <= 0 {
		return
	}
	t.total += n
	if minT < t.minT {
		t.minT = minT
	}
	if maxT > t.maxT {
		t.maxT = maxT
	}
}

// freeze fixes the bucket geometry from the observed range and allocates
// the counting state. After freeze, Observe/ObserveRange must not widen the
// range any further.
func (t *TimelineAccumulator) freeze() {
	if t.frozen {
		return
	}
	maxT := t.maxT
	if maxT <= t.minT {
		maxT = t.minT + 1
	}
	t.start = t.minT
	t.span = maxT - t.minT
	t.samples = make([]int64, t.n)
	t.remote = make([]int64, t.n)
	t.lat = make([]xsum.Sum, t.n)
	t.frozen = true
}

// Add buckets a chunk. The first Add freezes the bucket geometry from
// everything observed so far. Samples outside the observed range clamp to
// the first or last bucket instead of indexing out of bounds — they can
// only appear when a stated range was wrong, and the pipeline reports that
// separately.
func (t *TimelineAccumulator) Add(samples []pebs.Sample) {
	if t.n <= 0 {
		return
	}
	if !t.frozen {
		if t.total == 0 {
			return
		}
		t.freeze()
	}
	for idx := range samples {
		s := &samples[idx]
		i := int(float64(t.n) * (s.Time - t.start) / t.span)
		if i >= t.n {
			i = t.n - 1
		}
		if i < 0 {
			i = 0
		}
		t.samples[i]++
		if s.RemoteDRAM() {
			t.remote[i]++
			t.lat[i].Add(s.Latency)
		}
	}
}

// Fork returns an add-phase clone sharing this accumulator's frozen bucket
// geometry but holding no counts: one per worker of a sharded analysis,
// merged back with Merge. Fork freezes the parent's geometry, so all
// observation must be complete. Forking before any sample was observed
// returns nil (there is nothing to bucket).
func (t *TimelineAccumulator) Fork() *TimelineAccumulator {
	if t.n <= 0 || (!t.frozen && t.total == 0) {
		return nil
	}
	t.freeze()
	f := &TimelineAccumulator{
		n: t.n, weight: t.weight,
		minT: t.minT, maxT: t.maxT,
		start: t.start, span: t.span,
	}
	f.samples = make([]int64, f.n)
	f.remote = make([]int64, f.n)
	f.lat = make([]xsum.Sum, f.n)
	f.frozen = true
	return f
}

// Merge folds a Fork clone's counts into t. Both accumulators must have
// the same shape and share their frozen geometry — anything else is a
// pipeline bug, reported as an error rather than silently misbucketed. o is
// logically unchanged.
func (t *TimelineAccumulator) Merge(o *TimelineAccumulator) error {
	if t.n != o.n || t.weight != o.weight {
		return fmt.Errorf("diagnose: cannot merge timelines with different shape (%d/%d buckets, weight %v/%v)", t.n, o.n, t.weight, o.weight)
	}
	if !t.frozen || !o.frozen || t.start != o.start || t.span != o.span {
		return fmt.Errorf("diagnose: can only merge Fork clones sharing their bucket geometry")
	}
	t.total += o.total
	for i := range t.samples {
		t.samples[i] += o.samples[i]
		t.remote[i] += o.remote[i]
		t.lat[i].Merge(&o.lat[i])
	}
	return nil
}

// Buckets finalizes and returns the timeline (nil when no samples were
// observed, matching Timeline). Weighted counts are count×weight products
// and the average latency is the exact latency mass over the exact count,
// so finalization is as order-blind as the accumulation.
func (t *TimelineAccumulator) Buckets() []Bucket {
	if t.total == 0 || t.n <= 0 {
		return nil
	}
	t.freeze()
	out := make([]Bucket, t.n)
	for i := range out {
		out[i].Start = t.start + t.span*float64(i)/float64(t.n)
		out[i].End = t.start + t.span*float64(i+1)/float64(t.n)
		out[i].Samples = float64(t.samples[i]) * t.weight
		out[i].RemoteSamples = float64(t.remote[i]) * t.weight
		if t.remote[i] > 0 {
			out[i].AvgRemoteLatency = t.lat[i].Value() / float64(t.remote[i])
		}
	}
	return out
}

// sparkRunes are the eight sparkline levels.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders one rune per bucket, scaled to the peak of the chosen
// metric. Buckets with no remote samples render as spaces.
func Sparkline(buckets []Bucket, metric func(Bucket) float64) string {
	if len(buckets) == 0 {
		return ""
	}
	peak := 0.0
	for _, b := range buckets {
		if v := metric(b); v > peak {
			peak = v
		}
	}
	if peak == 0 {
		return strings.Repeat(" ", len(buckets))
	}
	var sb strings.Builder
	for _, b := range buckets {
		v := metric(b)
		if v <= 0 {
			sb.WriteByte(' ')
			continue
		}
		i := int(v / peak * float64(len(sparkRunes)))
		if i >= len(sparkRunes) {
			i = len(sparkRunes) - 1
		}
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String()
}

// RemoteLatencyMetric selects the per-bucket mean remote latency.
func RemoteLatencyMetric(b Bucket) float64 { return b.AvgRemoteLatency }

// RemoteTrafficMetric selects the per-bucket remote sample count.
func RemoteTrafficMetric(b Bucket) float64 { return b.RemoteSamples }
