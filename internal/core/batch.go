package core

import (
	"fmt"
	"runtime"

	"drbw/internal/program"
	"drbw/internal/topology"
)

// BatchJob names one case of a batch sweep: a benchmark builder plus the
// run configuration. Jobs may mix builders, so whole-suite sweeps (every
// benchmark × input × Tt-Nn) run through one pool.
type BatchJob struct {
	Builder program.Builder
	Cfg     program.Config
}

// BatchResult pairs one job's detection with its error. Batch runs never
// abort on a failing case: every job gets a result, and callers aggregate
// the errors while keeping the partial sweep.
type BatchResult struct {
	Detection *Detection
	Err       error
}

// EvaluateAll runs Evaluate over every job on a bounded GOMAXPROCS worker
// pool. Each job's randomness derives only from its own Cfg.Seed (the
// simulations share no state), so the results are identical to a serial
// loop in job order. A failing job fills only its own result's Err.
func (d *Detector) EvaluateAll(m *topology.Machine, jobs []BatchJob) []BatchResult {
	out := make([]BatchResult, len(jobs))
	// One sweep per worker: feature-extraction scratch is reused across
	// the cases a worker claims, so the batch's allocation count scales
	// with the pool width, not the job count.
	sweeps := make([]*Sweep, runtime.GOMAXPROCS(0))
	ParallelForLabeledWorker(len(jobs), "evaluate.sweep", func(i, w int) {
		var sw *Sweep
		if w < len(sweeps) {
			if sweeps[w] == nil {
				sweeps[w] = NewSweep(m)
			}
			sw = sweeps[w]
		} else {
			sw = NewSweep(m)
		}
		j := jobs[i]
		dn, err := d.detect(j.Builder, m, j.Cfg, sw)
		if err == nil {
			err = d.GroundTruth(dn)
		}
		if err != nil {
			out[i] = BatchResult{Err: fmt.Errorf("core: %s %s: %w", j.Builder.Name, j.Cfg, err)}
			return
		}
		out[i] = BatchResult{Detection: dn}
	})
	return out
}
