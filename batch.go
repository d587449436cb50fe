package drbw

import (
	"fmt"
	"runtime"
	"strings"

	"drbw/internal/core"
	"drbw/internal/obs"
)

// CaseError records one failed case of a batch run.
type CaseError struct {
	Index int // position in the submitted case slice
	Case  Case
	Err   error
}

// Error describes the failed case.
func (e CaseError) Error() string {
	if e.Case == (Case{}) {
		return fmt.Sprintf("case %d: %v", e.Index, e.Err)
	}
	return fmt.Sprintf("case %d (T%d-N%d %q): %v", e.Index, e.Case.Threads, e.Case.Nodes, e.Case.Input, e.Err)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e CaseError) Unwrap() error { return e.Err }

// BatchError aggregates the failed cases of a batch run. When a batch
// method returns a *BatchError, the report slice still carries every
// successful case (failed indices are nil): partial results survive
// individual failures.
type BatchError struct {
	Cases []CaseError
}

// Error summarizes every failed case.
func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "drbw: %d of the batch's cases failed:", len(e.Cases))
	for _, c := range e.Cases {
		b.WriteString("\n  ")
		b.WriteString(c.Error())
	}
	return b.String()
}

// Unwrap exposes the per-case errors for errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Cases))
	for i, c := range e.Cases {
		out[i] = c
	}
	return out
}

// AnalyzeAll runs Analyze over every case on a bounded GOMAXPROCS worker
// pool. Per-case seeding is deterministic (each simulation's randomness
// derives only from its own Case.Seed), so the reports are byte-identical
// to serial Analyze calls in case order. On per-case failure the other
// cases' reports are still returned, with a *BatchError aggregating the
// failures; reports[i] is nil exactly when case i failed.
func (t *Tool) AnalyzeAll(bench string, cases []Case) ([]*Report, error) {
	return t.batch(bench, cases, false)
}

// EvaluateAll is AnalyzeAll with the interleave ground-truth probe per
// case (the batch form of Evaluate).
func (t *Tool) EvaluateAll(bench string, cases []Case) ([]*Report, error) {
	return t.batch(bench, cases, true)
}

func (t *Tool) batch(bench string, cases []Case, evaluate bool) ([]*Report, error) {
	b, err := t.builder(bench)
	if err != nil {
		return nil, err
	}
	jobs := make([]core.BatchJob, len(cases))
	for i, c := range cases {
		jobs[i] = core.BatchJob{Builder: b, Cfg: c.config()}
	}
	var results []core.BatchResult
	if evaluate {
		results = t.detector.EvaluateAll(t.machine, jobs)
	} else {
		results = t.detector.DetectAll(t.machine, jobs)
	}
	reports := make([]*Report, len(cases))
	errs := make([]error, len(cases))
	for i, r := range results {
		errs[i] = r.Err
		if r.Err == nil {
			reports[i] = reportFromDetection(r.Detection)
		}
	}
	return reports, batchError(errs, cases)
}

// AnalyzeTraces runs AnalyzeTrace over every recording on a bounded
// GOMAXPROCS worker pool — the offline counterpart of AnalyzeAll, with the
// same partial-result semantics: reports[i] is nil exactly when recording
// i failed, and a *BatchError aggregates the failures.
func (t *Tool) AnalyzeTraces(tds []*TraceData) ([]*Report, error) {
	return t.analyzeBatch(len(tds), "analyze.traces", func(i int, sc *traceScratch, _ obs.SpanHandle) (*Report, error) {
		return t.analyzeTrace(tds[i], sc)
	})
}

// analyzeBatch runs analyze over n recordings on the batch pool, under a
// label span, handing each call its worker's reusable scratch so a batch
// allocates in proportion to its worker count, not its recording count.
// reports[i] is nil exactly when recording i failed.
func (t *Tool) analyzeBatch(n int, label string, analyze func(i int, sc *traceScratch, sp obs.SpanHandle) (*Report, error)) ([]*Report, error) {
	reports := make([]*Report, n)
	errs := make([]error, n)
	scratch := make([]*traceScratch, runtime.GOMAXPROCS(0))
	sp := obs.BeginSpan(label)
	core.ParallelForLabeledSpans(n, label, sp, func(i, w int, cs obs.SpanHandle) {
		var sc *traceScratch
		if w < len(scratch) {
			if scratch[w] == nil {
				scratch[w] = t.newScratch()
			}
			sc = scratch[w]
		} else {
			// The pool width changed mid-call; fall back to fresh scratch.
			sc = t.newScratch()
		}
		reports[i], errs[i] = analyze(i, sc, cs)
	})
	sp.End()
	return reports, batchError(errs, nil)
}

// batchError aggregates a batch's failures, errs[i] being input i's, into
// a *BatchError; cases, when non-nil, names each input. It is nil when
// every input succeeded.
func batchError(errs []error, cases []Case) error {
	var be BatchError
	for i, err := range errs {
		if err == nil {
			continue
		}
		ce := CaseError{Index: i, Err: err}
		if cases != nil {
			ce.Case = cases[i]
		}
		be.Cases = append(be.Cases, ce)
	}
	if len(be.Cases) == 0 {
		return nil
	}
	return &be
}
