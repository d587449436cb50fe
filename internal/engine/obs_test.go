package engine

import (
	"testing"

	"drbw/internal/memsim"
	"drbw/internal/obs"
	"drbw/internal/pebs"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// snapDelta reads the change in a named counter between two snapshots.
func snapDelta(before, after obs.Snapshot, name string) int64 {
	return after.Counters[name] - before.Counters[name]
}

// TestMetricsReconcileWithResult runs one profiled simulation and checks
// that the observability counters merged at the phase boundary reconcile
// exactly with the run's ground truth: window accesses against the
// configured window, per-level hits against the access total, and emitted
// samples against the collector's own kept/dropped accounting.
func TestMetricsReconcileWithResult(t *testing.T) {
	m := topology.XeonE5_4650()
	const threads, nodes = 8, 2
	cfg := testConfig(7)
	col := pebs.NewCollector(pebs.Config{Period: 200}, 7)
	cfg.Collector = col

	as, ph, _, _ := scanWorkload(t, m, threads, memsim.BindTo(0), 2e6)
	e, err := New(m, as, smallCaches(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bind, err := EvenBinding(m, threads, nodes)
	if err != nil {
		t.Fatal(err)
	}

	before := obs.Default.Snapshot()
	res, err := e.Run([]trace.Phase{ph}, bind)
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()

	if d := snapDelta(before, after, "engine.runs"); d != 1 {
		t.Fatalf("engine.runs delta = %d, want 1", d)
	}
	if d := snapDelta(before, after, "engine.phases"); d != int64(len(res.Phases)) {
		t.Fatalf("engine.phases delta = %d, want %d", d, len(res.Phases))
	}
	// Every active thread is profiled for exactly Window accesses per phase
	// (and driven through Warmup more that are not profiled).
	wantAcc := int64(threads) * int64(cfg.Window) * int64(len(res.Phases))
	if d := snapDelta(before, after, "engine.window.accesses"); d != wantAcc {
		t.Fatalf("engine.window.accesses delta = %d, want %d", d, wantAcc)
	}
	wantWarm := int64(threads) * int64(cfg.Warmup) * int64(len(res.Phases))
	if d := snapDelta(before, after, "engine.window.warmup_accesses"); d != wantWarm {
		t.Fatalf("engine.window.warmup_accesses delta = %d, want %d", d, wantWarm)
	}
	// The per-level hit counters partition the access total.
	var levels int64
	for _, name := range []string{
		"engine.window.hits.l1", "engine.window.hits.l2", "engine.window.hits.l3",
		"engine.window.hits.lfb", "engine.window.hits.mem",
	} {
		levels += snapDelta(before, after, name)
	}
	if levels != wantAcc {
		t.Fatalf("per-level hits sum to %d, want %d", levels, wantAcc)
	}
	// Every emitted sample reached the collector, which either kept it or
	// dropped it below the latency threshold.
	st := col.Stats()
	if d := snapDelta(before, after, "engine.samples.emitted"); d != int64(st.Total+st.DroppedThreshold) {
		t.Fatalf("engine.samples.emitted delta = %d, want total %d + dropped %d",
			d, st.Total, st.DroppedThreshold)
	}
	if st.Kept+st.Evicted != st.Total {
		t.Fatalf("collector stats inconsistent: %+v", st)
	}
	if d := snapDelta(before, after, "engine.integrate.epochs"); d <= 0 {
		t.Fatal("engine.integrate.epochs did not advance")
	}
	// Phase-boundary utilization gauges: the process-wide peak gauge must
	// be at least this run's peak on every channel that carried traffic.
	for ch, stats := range res.Phases[0].Channels {
		g := after.Gauges["engine.channel.peak_util."+ch.String()]
		if g+1e-12 < stats.PeakUtil {
			t.Fatalf("peak_util gauge %s = %g below run peak %g", ch, g, stats.PeakUtil)
		}
	}
}
