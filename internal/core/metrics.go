package core

import (
	"time"

	"drbw/internal/features"
	"drbw/internal/obs"
	"drbw/internal/pebs"
)

// Pipeline observability. Every completed pool case lands in a per-pool
// latency histogram, sampler kept/dropped totals are merged after each
// profiled run, and the classifier's per-label verdict counts are tracked
// at prediction time.
var (
	mSamplesKept    = obs.Default.Counter("pebs.samples.kept")
	mSamplesDropped = obs.Default.Counter("pebs.samples.dropped_threshold")
	mSamplesEvicted = obs.Default.Counter("pebs.samples.evicted")
	mWeightLast     = obs.Default.Gauge("pebs.weight.last")

	mPredictGood = obs.Default.Counter("dtree.predict." + features.Good.String())
	mPredictRMC  = obs.Default.Counter("dtree.predict." + features.RMC.String())
	mDetectCases = obs.Default.Counter("detect.cases")
	mDetectHits  = obs.Default.Counter("detect.contended_cases")
)

// mergeCollectorStats publishes one run's sampler accounting.
func mergeCollectorStats(col *pebs.Collector) {
	st := col.Stats()
	mSamplesKept.Add(int64(st.Kept))
	mSamplesDropped.Add(int64(st.DroppedThreshold))
	mSamplesEvicted.Add(int64(st.Evicted))
	mWeightLast.Set(st.Weight)
}

// countPrediction tracks one channel classification.
func countPrediction(label features.Label) {
	if label == features.RMC {
		mPredictRMC.Inc()
	} else {
		mPredictGood.Inc()
	}
}

// countDetectCase tracks one classified case — live or offline — and
// whether it flagged contention.
func countDetectCase(contended bool) {
	mDetectCases.Inc()
	if contended {
		mDetectHits.Inc()
	}
}

// ParallelForLabeledWorker runs fn(i, w) for every i in [0, n) on the
// batch pool (ParallelForWorker), wrapped in a named span with per-case
// metrics and progress: "pool.<label>.case_seconds" collects the per-case
// latency distribution, and the span's progress line (N/M done, elapsed,
// ETA) goes to the configured progress writer. The worker index is passed through so
// consumers can reuse per-worker scratch. When a tracer is installed the
// dispatch appears as a "pool.<label>" trace span with one "case" child per
// item, carrying index and worker-id attributes.
func ParallelForLabeledWorker(n int, label string, fn func(i, worker int)) {
	if n <= 0 {
		return
	}
	sp := obs.BeginSpan("pool." + label)
	ParallelForLabeledSpans(n, label, sp, func(i, w int, _ obs.SpanHandle) { fn(i, w) })
	sp.End()
}

// ParallelForLabeledSpans is ParallelForLabeledWorker with the causal
// tracing exposed: each item's trace span — a child of parent, annotated
// with the item index and worker id — is passed to fn so consumers can
// attach their own attributes (block ranges, shard paths, candidate keys).
// The parent handle is not ended here; the caller owns it. With no tracer
// installed every handle is a no-op and the dispatch allocates nothing for
// tracing.
func ParallelForLabeledSpans(n int, label string, parent obs.SpanHandle, fn func(i, worker int, sp obs.SpanHandle)) {
	if n <= 0 {
		return
	}
	prog := obs.StartProgress(label, n)
	hist := obs.Default.Histogram("pool." + label + ".case_seconds")
	ParallelForWorker(n, func(i, w int) {
		cs := parent.Child("case")
		cs.SetInt("index", int64(i))
		cs.SetInt("worker", int64(w))
		start := time.Now()
		fn(i, w, cs)
		hist.Observe(time.Since(start).Seconds())
		cs.End()
		prog.Done()
	})
	prog.Finish()
}
