package engine

import (
	"sync"

	"drbw/internal/cache"
	"drbw/internal/obs"
	"drbw/internal/topology"
)

// Engine observability. The per-access hot loops record nothing: the
// window loop already keeps exact per-thread integer tallies (total
// accesses, per-level hits) for profile construction, and runStats just
// sums those at the phase boundary; the integration loop adds one integer
// field increment per epoch and per emitted sample. The global registry is
// touched exactly once per Run (a handful of striped atomic adds), so
// concurrent batch workers never contend inside a simulation and
// BenchmarkEngineContendedRun's allocation profile is unchanged.
var (
	mRuns     = obs.Default.Counter("engine.runs")
	mPhases   = obs.Default.Counter("engine.phases")
	mWarmup   = obs.Default.Counter("engine.window.warmup_accesses")
	mAccesses = obs.Default.Counter("engine.window.accesses")
	mReplayed = obs.Default.Counter("engine.window.replayed")
	mSamples  = obs.Default.Counter("engine.samples.emitted")
	mEpochs   = obs.Default.Counter("engine.integrate.epochs")

	// Per-layer window hit counters, indexed by cache.Level.
	mLevel = [5]*obs.Counter{
		cache.L1:  obs.Default.Counter("engine.window.hits.l1"),
		cache.L2:  obs.Default.Counter("engine.window.hits.l2"),
		cache.L3:  obs.Default.Counter("engine.window.hits.l3"),
		cache.LFB: obs.Default.Counter("engine.window.hits.lfb"),
		cache.MEM: obs.Default.Counter("engine.window.hits.mem"),
	}
)

// runStats accumulates one Run's tallies in plain (non-atomic) fields —
// each simulation is single-goroutine — and merges them into the default
// registry once, when the run completes.
type runStats struct {
	warmup   uint64
	accesses uint64    // simulated post-warmup accesses
	replayed uint64    // post-warmup accesses of replayed windows
	level    [5]uint64 // simulated accesses per serving level
	samples  uint64
	epochs   uint64
	phases   uint64
}

// merge publishes the run's tallies.
func (st *runStats) merge() {
	obs.RecordEvent(obs.EventMetric, "engine.run", int64(st.accesses), int64(st.samples))
	mRuns.Inc()
	if st.phases > 0 {
		mPhases.Add(int64(st.phases))
	}
	if st.warmup > 0 {
		mWarmup.Add(int64(st.warmup))
	}
	if st.accesses > 0 {
		mAccesses.Add(int64(st.accesses))
	}
	if st.replayed > 0 {
		mReplayed.Add(int64(st.replayed))
	}
	for l, n := range st.level {
		if n > 0 {
			mLevel[l].Add(int64(n))
		}
	}
	if st.samples > 0 {
		mSamples.Add(int64(st.samples))
	}
	if st.epochs > 0 {
		mEpochs.Add(int64(st.epochs))
	}
}

// Channel-utilization gauges, published at every phase (window) boundary:
// engine.channel.peak_util.<ch> carries the highest epoch utilization seen
// on the channel across the process lifetime (Max), and
// engine.channel.avg_util.<ch> the most recent phase's time-weighted mean
// (Set). Gauge handles are cached per node count — two machines with the
// same node count share channel names — so Engine construction does not
// re-render names or re-lock the registry maps.
var (
	chanGaugeMu  sync.Mutex
	chanGaugeTab = map[int]*chanGauges{}
)

type chanGauges struct {
	peak []*obs.Gauge
	avg  []*obs.Gauge
}

// channelGauges returns the cached gauge tables for an nn-node machine,
// indexed by ci = src*nn+dst.
func channelGauges(nn int) *chanGauges {
	chanGaugeMu.Lock()
	defer chanGaugeMu.Unlock()
	if g := chanGaugeTab[nn]; g != nil {
		return g
	}
	g := &chanGauges{
		peak: make([]*obs.Gauge, nn*nn),
		avg:  make([]*obs.Gauge, nn*nn),
	}
	for ci := 0; ci < nn*nn; ci++ {
		ch := topology.Channel{Src: topology.NodeID(ci / nn), Dst: topology.NodeID(ci % nn)}
		g.peak[ci] = obs.Default.Gauge("engine.channel.peak_util." + ch.String())
		g.avg[ci] = obs.Default.Gauge("engine.channel.avg_util." + ch.String())
	}
	chanGaugeTab[nn] = g
	return g
}
