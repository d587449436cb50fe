package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"drbw/internal/obs"
)

// op is one operation of a workload's round: a public call, plus the same
// call rebuilt from the layers' exported functions for the traced run.
type op struct {
	label string
	run   func() (outcome, error)
	// traced rebuilds run under sp, one child span per layer call. The
	// returned follow-up, when non-nil, runs after sp has ended: work the
	// traced run measures in addition to the operation itself.
	traced func(sp obs.SpanHandle) (outcome, func() error, error)
	// want, when set, is the fingerprint a correct result has.
	want string
	// check, when set, is one more property a correct result has.
	check func(outcome) error
}

// outcome is what a check sees of one operation's result.
type outcome struct {
	// fp fingerprints the result: every round, and the traced rebuild,
	// must reproduce the first result's fingerprint exactly.
	fp      string
	samples int64
	// speedup is the cycle speedup of the placement the operation chose;
	// 0 when it chose none.
	speedup float64
}

// maxFailureLines caps the failures printed per workload.
const maxFailureLines = 10

// checker verifies operations and counts them: an operation whose call
// errs or whose result fails a check counts as failed.
type checker struct {
	ref               []string // each op's first fingerprint
	attempted, failed int
	log               io.Writer
}

func newChecker(ops int, log io.Writer) *checker {
	return &checker{ref: make([]string, ops), log: log}
}

// verify counts op i's attempt and reports whether it succeeded.
func (ck *checker) verify(i int, o op, out outcome, err error) bool {
	ck.attempted++
	if err == nil {
		err = ck.compare(i, o, out)
	}
	if err == nil {
		return true
	}
	ck.failed++
	if ck.failed <= maxFailureLines {
		fmt.Fprintf(ck.log, "FAIL    %s: %v\n", o.label, err)
	}
	return false
}

func (ck *checker) compare(i int, o op, out outcome) error {
	if o.want != "" && out.fp != o.want {
		return fmt.Errorf("got %s, want %s", out.fp, o.want)
	}
	if o.check != nil {
		if err := o.check(out); err != nil {
			return err
		}
	}
	if ck.ref[i] == "" {
		ck.ref[i] = out.fp
		return nil
	}
	if out.fp != ck.ref[i] {
		return fmt.Errorf("got %s, the first result was %s", out.fp, ck.ref[i])
	}
	return nil
}

// phase is what one timed phase measured.
type phase struct {
	latMS      []float64 // every operation's latency
	roundRates []float64 // each round's operations per second
	ops        int
	elapsed    time.Duration // summed round time
	samples    int64         // samples behind the successful operations' results
	speedups   []float64
	allocBytes uint64 // bytes allocated during the phase
	heapInuse  uint64 // in-use heap after a GC at the end of the phase
	// simAccesses counts the accesses the engine simulated, warm-up
	// included.
	simAccesses int64
	tracer      *obs.Tracer // traced phases only
}

// runPhase runs whole rounds of ops until budget has passed (always at
// least one; exactly one with -smoke), verifying every operation.
func (b *bench) runPhase(ops []op, ck *checker, budget time.Duration, traced bool) *phase {
	ph := &phase{}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	sim0 := readSim()
	if traced {
		ph.tracer = obs.StartTracing()
	}
	start := time.Now()
	for r := 0; r == 0 || (!b.opts.smoke && time.Since(start) < budget); r++ {
		roundStart := time.Now()
		for i, o := range ops {
			var out outcome
			var err error
			t := time.Now()
			if traced {
				out, err = runTraced(o)
			} else {
				out, err = o.run()
			}
			ph.latMS = append(ph.latMS, float64(time.Since(t))/float64(time.Millisecond))
			if ck.verify(i, o, out, err) {
				ph.samples += out.samples
				if out.speedup > 0 {
					ph.speedups = append(ph.speedups, out.speedup)
				}
			}
		}
		d := time.Since(roundStart)
		ph.elapsed += d
		ph.ops += len(ops)
		ph.roundRates = append(ph.roundRates, float64(len(ops))/d.Seconds())
	}
	if traced {
		obs.StopTracing()
	}
	ph.simAccesses = readSim().total() - sim0.total()
	runtime.ReadMemStats(&mem)
	ph.allocBytes = mem.TotalAlloc - alloc0
	runtime.GC()
	runtime.ReadMemStats(&mem)
	ph.heapInuse = mem.HeapInuse
	return ph
}

// runTraced runs o's rebuild inside an operation span annotated with the
// simulator's counters, then its follow-up outside the span. The
// latency the caller measures includes the follow-up; the per-layer
// numbers use the span.
func runTraced(o op) (outcome, error) {
	sp := obs.BeginSpan(spanOp)
	sp.SetStr("case", o.label)
	before := readSim()
	out, after, err := o.traced(sp)
	readSim().annotate(sp, before)
	sp.SetInt(attrSamples, out.samples)
	sp.End()
	if err == nil && after != nil {
		err = after()
	}
	return out, err
}

// hitLevels are the cache levels the engine's hit counters partition
// profiled accesses into.
var hitLevels = []string{"l1", "l2", "l3", "lfb", "mem"}

// simCount is a snapshot of the engine's published access counters.
type simCount struct {
	accesses, warmup int64
	hits             []int64
}

func readSim() simCount {
	c := simCount{
		accesses: obs.Default.Counter("engine.window.accesses").Value(),
		warmup:   obs.Default.Counter("engine.window.warmup_accesses").Value(),
	}
	for _, l := range hitLevels {
		c.hits = append(c.hits, obs.Default.Counter("engine.window.hits."+l).Value())
	}
	return c
}

func (c simCount) total() int64 { return c.accesses + c.warmup }

// annotate records on sp how far the counters moved since before.
func (c simCount) annotate(sp obs.SpanHandle, before simCount) {
	sp.SetInt(attrAccesses, c.total()-before.total())
	for i, l := range hitLevels {
		sp.SetInt(attrHitPrefix+l, c.hits[i]-before.hits[i])
	}
}
