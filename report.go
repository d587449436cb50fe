package drbw

import (
	"fmt"
	"strings"

	"drbw/internal/diagnose"
	"drbw/internal/dtree"
	"drbw/internal/topology"
)

// ObjectCF is one data object's Contribution Fraction to the detected
// contention (Section VI of the paper).
type ObjectCF struct {
	Name    string  // programmer-visible object name
	Site    string  // allocation site, "func (file:line)"
	CF      float64 // fraction of contended-channel samples on this object
	Samples float64 // estimated true sample count behind the CF
}

// Report is the outcome of analyzing one benchmark case.
type Report struct {
	Bench  string
	Input  string
	Config string // Tt-Nn label

	// Detected is the classifier's verdict: remote memory bandwidth
	// contention on at least one channel.
	Detected bool
	// Channels lists the contended directed channels ("N1->N0").
	Channels []string
	// Objects ranks heap objects by CF across the contended channels.
	Objects []ObjectCF
	// UnattributedCF is the CF share on static/stack data the profiler
	// cannot attribute.
	UnattributedCF float64

	// Samples counts the PEBS samples the verdict was computed from (after
	// any time-range filtering). The run ledger uses it as the audit link
	// between a recording and its report.
	Samples int64

	// Timeline slices the run into equal time windows and tracks remote
	// pressure per window — when the contention happened, not just whether.
	Timeline []TimelinePoint

	// Ground truth, present when the report came from Evaluate.
	Evaluated         bool
	Actual            bool
	InterleaveSpeedup float64
}

// TimelinePoint is one time slice of the profiled run.
type TimelinePoint struct {
	RemoteSamples    float64
	AvgRemoteLatency float64
}

// TimelineSparkline renders the remote-latency-over-time sparkline (one
// rune per slice; blank slices had no remote samples).
func (r *Report) TimelineSparkline() string {
	buckets := make([]diagnose.Bucket, len(r.Timeline))
	for i, p := range r.Timeline {
		buckets[i] = diagnose.Bucket{RemoteSamples: p.RemoteSamples, AvgRemoteLatency: p.AvgRemoteLatency}
	}
	return diagnose.Sparkline(buckets, diagnose.RemoteLatencyMetric)
}

// newReport renders a verdict over n samples: the contended channels, the
// diagnosis of them (nil when there are none) and the timeline. Live
// detection and every offline analysis build their reports here.
func newReport(contended []topology.Channel, diag *diagnose.Report, timeline []diagnose.Bucket, n int64) *Report {
	r := &Report{Detected: len(contended) > 0, Samples: n}
	for _, ch := range contended {
		r.Channels = append(r.Channels, ch.String())
	}
	if diag != nil {
		for _, o := range diag.Overall {
			r.Objects = append(r.Objects, ObjectCF{
				Name: o.Object.Name, Site: o.Object.Site.String(),
				CF: o.CF, Samples: o.Samples,
			})
		}
		r.UnattributedCF = diag.UnattributedCF
	}
	for _, b := range timeline {
		r.Timeline = append(r.Timeline, TimelinePoint{
			RemoteSamples: b.RemoteSamples, AvgRemoteLatency: b.AvgRemoteLatency,
		})
	}
	return r
}

// Contended reports the classifier's verdict.
func (r *Report) Contended() bool { return r.Detected }

// TopObjects returns the names of the n highest-CF objects (fewer if the
// ranking is shorter) — the arguments to pass to Tool.Optimize.
func (r *Report) TopObjects(n int) []string {
	var out []string
	for i := 0; i < n && i < len(r.Objects); i++ {
		out = append(out, r.Objects[i].Name)
	}
	return out
}

// String renders the report for terminals.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s: ", r.Bench, r.Input, r.Config)
	if !r.Detected {
		b.WriteString("no remote memory bandwidth contention detected\n")
	} else {
		fmt.Fprintf(&b, "REMOTE BANDWIDTH CONTENTION on %s\n", strings.Join(r.Channels, ", "))
		for _, o := range r.Objects {
			fmt.Fprintf(&b, "  CF %5.1f%%  %-20s %s\n", 100*o.CF, o.Name, o.Site)
		}
		if r.UnattributedCF > 0.005 {
			fmt.Fprintf(&b, "  CF %5.1f%%  %-20s (static/stack, not tracked)\n",
				100*r.UnattributedCF, "<unattributed>")
		}
		if len(r.Timeline) > 0 {
			fmt.Fprintf(&b, "  remote latency over time: [%s]\n", r.TimelineSparkline())
		}
	}
	if r.Evaluated {
		fmt.Fprintf(&b, "  ground truth: actual=%v (interleave speedup %.2fx)\n",
			r.Actual, r.InterleaveSpeedup)
	}
	return b.String()
}

// Confusion is a 2-class confusion matrix with the paper's accuracy
// metrics (rmc is the positive class).
type Confusion struct {
	// GoodGood etc. count (actual, predicted) pairs.
	GoodGood, GoodRMC int
	RMCGood, RMCRMC   int
}

func newConfusion(cm *dtree.ConfusionMatrix) *Confusion {
	return &Confusion{
		GoodGood: cm.Counts[0][0], GoodRMC: cm.Counts[0][1],
		RMCGood: cm.Counts[1][0], RMCRMC: cm.Counts[1][1],
	}
}

// Total is the number of classified instances.
func (c *Confusion) Total() int { return c.GoodGood + c.GoodRMC + c.RMCGood + c.RMCRMC }

// Accuracy is the fraction classified correctly.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.GoodGood+c.RMCRMC) / float64(t)
}

// FalsePositiveRate is the fraction of actual-good instances flagged rmc.
func (c *Confusion) FalsePositiveRate() float64 {
	n := c.GoodGood + c.GoodRMC
	if n == 0 {
		return 0
	}
	return float64(c.GoodRMC) / float64(n)
}

// FalseNegativeRate is the fraction of actual-rmc instances missed.
func (c *Confusion) FalseNegativeRate() float64 {
	n := c.RMCGood + c.RMCRMC
	if n == 0 {
		return 0
	}
	return float64(c.RMCGood) / float64(n)
}

// String renders the matrix like the paper's Table III.
func (c *Confusion) String() string {
	return fmt.Sprintf(
		"actual\\pred      good       rmc\ngood        %9d %9d\nrmc         %9d %9d\naccuracy %.1f%%  FPR %.1f%%  FNR %.1f%%",
		c.GoodGood, c.GoodRMC, c.RMCGood, c.RMCRMC,
		100*c.Accuracy(), 100*c.FalsePositiveRate(), 100*c.FalseNegativeRate())
}
