package diagnose

import (
	"fmt"
	"math"
	"strings"

	"drbw/internal/pebs"
)

// Bucket is one time slice of a profiled run.
type Bucket struct {
	Start, End float64 // cycles
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
// as exactly that: add, then finalize. Reports use the accumulator.
func Timeline(samples []pebs.Sample, n int, weight float64) []Bucket {
	acc := NewTimelineAccumulator(n, weight)
	acc.Add(samples)
	return acc.Buckets()
}

// TimelineAccumulator is the streaming form of Timeline, in one pass.
// Bucket boundaries depend on the global time range, which is known only
// once every sample has gone by, so Add tracks the range and keeps the
// time and latency of each remote-DRAM sample — 16 bytes per remote
// sample, nothing for the rest — and Buckets fixes the geometry and
// buckets the kept column.
//
// Accumulation is mergeable for shard-parallel analysis: each worker adds
// into its own accumulator, folded together with Merge. Counts are
// integers, ranges are min/max and the latency mass is an integer sum of
// whole cycles, so the result is a function of the sample multiset alone —
// chunk order, shard boundaries and merge shape never show in the output,
// and any streamed or sharded schedule is bit-identical to Timeline over
// the whole slice.
type TimelineAccumulator struct {
	n          int
	weight     float64
	minT, maxT float64
	count      int64
	remote     []remoteSample
}

// remoteSample is what bucketing needs of one remote-DRAM sample.
type remoteSample struct {
	time    float64
	latency uint64
}

// NewTimelineAccumulator prepares an n-bucket timeline. weight scales kept
// samples to true counts; non-positive means 1.
func NewTimelineAccumulator(n int, weight float64) *TimelineAccumulator {
	if weight <= 0 {
		weight = 1
	}
	return &TimelineAccumulator{n: n, weight: weight, minT: math.Inf(1), maxT: math.Inf(-1)}
}

// Observe widens the time range to cover a chunk without adding it.
func (t *TimelineAccumulator) Observe(samples []pebs.Sample) {
	for i := range samples {
		t.widen(samples[i].Time, samples[i].Time)
	}
}

// ObserveRange widens the time range to cover n samples spanning [minT,
// maxT], as an index footer states them. An empty chunk (n <= 0) has no
// range.
func (t *TimelineAccumulator) ObserveRange(minT, maxT float64, n int) {
	if n > 0 {
		t.widen(minT, maxT)
	}
}

func (t *TimelineAccumulator) widen(minT, maxT float64) {
	if minT < t.minT {
		t.minT = minT
	}
	if maxT > t.maxT {
		t.maxT = maxT
	}
}

// Add accounts a chunk: it widens the range, counts the samples, and keeps
// the remote-DRAM samples' times and latencies for Buckets.
func (t *TimelineAccumulator) Add(samples []pebs.Sample) {
	t.count += int64(len(samples))
	for i := range samples {
		s := &samples[i]
		t.widen(s.Time, s.Time)
		if s.RemoteDRAM() {
			t.remote = append(t.remote, remoteSample{s.Time, uint64(s.Latency)})
		}
	}
}

// Merge folds o's samples into t. Both accumulators must have the same
// shape — anything else is a pipeline bug, reported as an error rather
// than silently misbucketed. o is unchanged.
func (t *TimelineAccumulator) Merge(o *TimelineAccumulator) error {
	if t.n != o.n || t.weight != o.weight {
		return fmt.Errorf("diagnose: cannot merge timelines with different shape (%d/%d buckets, weight %v/%v)", t.n, o.n, t.weight, o.weight)
	}
	t.widen(o.minT, o.maxT)
	t.count += o.count
	t.remote = append(t.remote, o.remote...)
	return nil
}

// Range reports what Add has seen: the sample count and the range of every
// time Add and Observe saw (+Inf, -Inf when there was none).
func (t *TimelineAccumulator) Range() (n int64, minT, maxT float64) {
	return t.count, t.minT, t.maxT
}

// Buckets finalizes and returns the timeline (nil when no samples were
// added). The geometry spans the whole range, a zero-width range widened
// to one cycle. Weighted counts are count×weight products and the average
// latency is the exact latency mass over the exact count, so finalization
// is as order-blind as the accumulation.
func (t *TimelineAccumulator) Buckets() []Bucket {
	if t.count == 0 || t.n <= 0 {
		return nil
	}
	maxT := t.maxT
	if maxT <= t.minT {
		maxT = t.minT + 1
	}
	start, span := t.minT, maxT-t.minT
	remote := make([]int64, t.n)
	lat := make([]uint64, t.n)
	for _, r := range t.remote {
		i := int(float64(t.n) * (r.time - start) / span)
		if i >= t.n {
			i = t.n - 1
		}
		if i < 0 {
			i = 0
		}
		remote[i]++
		lat[i] += r.latency
	}
	out := make([]Bucket, t.n)
	for i := range out {
		out[i].Start = start + span*float64(i)/float64(t.n)
		out[i].End = start + span*float64(i+1)/float64(t.n)
		out[i].RemoteSamples = float64(remote[i]) * t.weight
		if remote[i] > 0 {
			out[i].AvgRemoteLatency = float64(lat[i]) / float64(remote[i])
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
