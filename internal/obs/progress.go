package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// progressOut is where progress lines go. Nil disables progress output;
// metrics are recorded regardless.
var progressOut atomic.Pointer[io.Writer]

// SetProgressWriter directs progress lines (N/M done, elapsed, ETA) to w.
// Passing nil disables them (the default, so library use and tests stay
// quiet). CLI.Start points it at stderr.
func SetProgressWriter(w io.Writer) {
	if w == nil {
		progressOut.Store(nil)
		return
	}
	progressOut.Store(&w)
}

// progressEvery throttles intermediate progress lines.
const progressEvery = 250 * time.Millisecond

// Progress times one named batch of identical work items and reports N/M,
// elapsed time and a linear-extrapolation ETA to the configured progress
// writer. Finishing it records the batch's duration into the default
// registry's histogram "span.<name>.seconds" and bumps the counter
// "span.<name>.count", so repeated batches build a latency distribution;
// the end is also a flight event. Done may be called from many workers.
type Progress struct {
	name  string
	start time.Time
	total int64
	done  atomic.Int64

	mu       sync.Mutex
	lastEmit time.Time
}

// StartProgress starts timing a batch named name of total work items. The
// throttle starts with it, so a batch that finishes within progressEvery
// prints only its final line.
func StartProgress(name string, total int) *Progress {
	now := time.Now()
	return &Progress{name: name, start: now, total: int64(total), lastEmit: now}
}

// Done marks one item complete, emitting a throttled progress line.
func (p *Progress) Done() {
	n := p.done.Add(1)
	w := progressOut.Load()
	if w == nil {
		return
	}
	final := n >= p.total
	p.mu.Lock()
	now := time.Now()
	if !final && now.Sub(p.lastEmit) < progressEvery {
		p.mu.Unlock()
		return
	}
	p.lastEmit = now
	p.mu.Unlock()
	p.emit(*w, n)
}

// Finish records the batch and returns its total duration; call it exactly
// once. It emits a final line if the work was cut short of total.
func (p *Progress) Finish() time.Duration {
	if w := progressOut.Load(); w != nil {
		if n := p.done.Load(); n < p.total {
			p.emit(*w, n)
		}
	}
	d := time.Since(p.start)
	Default.Histogram("span." + p.name + ".seconds").Observe(d.Seconds())
	Default.Counter("span." + p.name + ".count").Inc()
	RecordEvent(EventMetric, "span."+p.name, d.Nanoseconds(), 0)
	return d
}

// emit writes one progress line: name, N/M, percent, elapsed, ETA. A
// non-positive total (an open-ended or degenerate batch) drops the percent
// and ETA — both divide by total — instead of printing Inf/NaN.
func (p *Progress) emit(w io.Writer, n int64) {
	elapsed := time.Since(p.start)
	if p.total <= 0 {
		fmt.Fprintf(w, "%s: %d done, elapsed %s\n", p.name, n, roundDur(elapsed))
		return
	}
	line := fmt.Sprintf("%s: %d/%d (%.0f%%) elapsed %s",
		p.name, n, p.total, 100*float64(n)/float64(p.total), roundDur(elapsed))
	if n > 0 && n < p.total {
		eta := time.Duration(float64(elapsed) / float64(n) * float64(p.total-n))
		line += " eta " + roundDur(eta).String()
	}
	fmt.Fprintln(w, line)
}

// roundDur trims durations to a readable precision.
func roundDur(d time.Duration) time.Duration {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second)
	case d >= time.Second:
		return d.Round(100 * time.Millisecond)
	default:
		return d.Round(time.Millisecond)
	}
}
