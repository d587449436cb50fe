package core

import (
	"fmt"

	"drbw/internal/diagnose"
	"drbw/internal/features"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
	"drbw/internal/topology"
)

// TimelineBuckets is the resolution of every report's remote-pressure
// timeline.
const TimelineBuckets = 32

// Sweep is one analysis' accumulation: block by block it feeds the Table I
// feature sums, the remote-pressure timeline and dense CF attribution for
// every remote channel, so one pass over the samples gives a verdict, its
// diagnosis and its timeline. Live detection sweeps a profiled run's
// samples; offline analysis runs one sweep per worker and merges them.
// Every part is integer counts and sums, so the result depends on
// the sample multiset alone, never on blocks, order or merge shape.
type Sweep struct {
	nodes    int
	weight   float64
	features *features.Accumulator
	timeline *diagnose.TimelineAccumulator
	cf       *diagnose.DenseCF // nil without an object table
}

// NewSweep returns a sweep over machine m's channels; Reset prepares it
// for each analysis.
func NewSweep(m *topology.Machine) *Sweep {
	s := &Sweep{nodes: m.Nodes(), features: features.NewAccumulator(m)}
	s.Reset(nil, 1)
	return s
}

// Reset readies s for an analysis at the collector weight, reusing its
// feature scratch. table attributes sample addresses to data objects; a
// nil table leaves the sweep unable to diagnose, which matters only if
// classification flags contention.
func (s *Sweep) Reset(table *profiledata.Table, weight float64) {
	s.features.Reset()
	s.weight = weight
	s.timeline = diagnose.NewTimelineAccumulator(TimelineBuckets, weight)
	s.cf = nil
	if table != nil {
		s.cf = diagnose.NewDenseCF(table, s.nodes, weight)
	}
}

// Check fails if a sample of block has a source or home node outside the
// machine.
func (s *Sweep) Check(block []pebs.Sample) error {
	for j := range block {
		if b := &block[j]; b.SrcNode < 0 || int(b.SrcNode) >= s.nodes ||
			b.HomeNode < 0 || int(b.HomeNode) >= s.nodes {
			return fmt.Errorf("drbw: sample references node outside the %d-node machine", s.nodes)
		}
	}
	return nil
}

// Add checks one block of samples and accumulates it.
func (s *Sweep) Add(block []pebs.Sample) error {
	if err := s.Check(block); err != nil {
		return err
	}
	s.features.Add(block)
	s.timeline.Add(block)
	if s.cf != nil {
		s.cf.Add(block)
	}
	return nil
}

// Merge folds o into s; both must have been Reset with the same table and
// weight. o is unchanged.
func (s *Sweep) Merge(o *Sweep) error {
	if err := s.features.Merge(o.features); err != nil {
		return err
	}
	if err := s.timeline.Merge(o.timeline); err != nil {
		return err
	}
	if s.cf != nil {
		return s.cf.Merge(o.cf)
	}
	return nil
}

// Range reports the samples accumulated: their count and time range
// (+Inf, -Inf when there are none).
func (s *Sweep) Range() (n int64, minT, maxT float64) { return s.timeline.Range() }

// Finish classifies the channels with d, once, and returns the contended
// ones, their diagnosis — the dense CF counts restricted to them, nil when
// none is contended or the sweep has no table — and the timeline.
func (s *Sweep) Finish(d *Detector) ([]topology.Channel, *diagnose.Report, []diagnose.Bucket) {
	contended := d.Classify(s.features, s.weight)
	var diag *diagnose.Report
	if len(contended) > 0 && s.cf != nil {
		diag = s.cf.Restrict(contended).Report()
	}
	return contended, diag, s.timeline.Buckets()
}
