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

// EvaluateAll runs Evaluate over every job on a bounded GOMAXPROCS worker
// pool and hands job i's outcome to visit(i, dn, err), on the worker that
// evaluated it, as soon as the job finishes. visit keeps what it reads: a
// sweep never holds more than one detection (program, heap, samples) per
// worker. Calls run concurrently, each with its own i, so visit may write
// index i of a slice without locking. Each job's randomness derives only
// from its own Cfg.Seed (the simulations share no state), so every
// outcome is identical to a serial loop's. A failing job reaches visit
// with a nil detection and its error; the sweep goes on.
func (d *Detector) EvaluateAll(m *topology.Machine, jobs []BatchJob, visit func(i int, dn *Detection, err error)) {
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
			visit(i, nil, fmt.Errorf("core: %s %s: %w", j.Builder.Name, j.Cfg, err))
			return
		}
		visit(i, dn, nil)
	})
}
