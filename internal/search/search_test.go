package search

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"runtime"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/core"
	"drbw/internal/diagnose"
	"drbw/internal/engine"
	"drbw/internal/micro"
	"drbw/internal/obs"
	"drbw/internal/optimize"
	"drbw/internal/pebs"
	"drbw/internal/program"
	"drbw/internal/topology"
)

func ecfgT() engine.Config {
	return engine.Config{Window: 2048, Warmup: 512, ReservoirSize: 256, Seed: 21}
}

func contendedInput(t testing.TB, b program.Builder, seed uint64) Input {
	return profiledInput(t, b, program.Config{Threads: 32, Nodes: 4, Seed: seed})
}

// profiledInput profiles the case once on the paper's machine, with the
// collector and run seeds live detection uses, and diagnoses the channels
// floorContended picks — a search input without a trained classifier.
func profiledInput(t testing.TB, b program.Builder, cfg program.Config) Input {
	t.Helper()
	m := topology.XeonE5_4650()
	p, samples, weight, err := core.Profile(b, m, cfg, ecfgT(), core.DefaultCollectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Input{
		Builder: b, Machine: m, Cfg: cfg, Samples: samples,
		Report: diagnose.Analyze(p.Heap, samples, floorContended(m, samples), weight),
	}
}

// floorContended stands in for a classifier verdict: every remote channel
// whose DRAM sample count clears a floor of max(25, 1% of remote DRAM
// samples), in canonical order.
func floorContended(m *topology.Machine, samples []pebs.Sample) []topology.Channel {
	counts := make([]int, m.NumChannels())
	remote := 0
	for i := range samples {
		s := &samples[i]
		if s.Level != cache.MEM || s.SrcNode == s.HomeNode {
			continue
		}
		counts[m.ChannelIndex(s.Channel())]++
		remote++
	}
	floor := max(remote/100, 25)
	var out []topology.Channel
	for ci := 0; ci < m.NumChannels(); ci++ {
		if ch := m.ChannelAt(ci); !ch.Local() && counts[ci] >= floor {
			out = append(out, ch)
		}
	}
	return out
}

func TestCandidateKey(t *testing.T) {
	c := Candidate{Assignments: []Assignment{
		{Object: "vec_a", Strategy: optimize.Colocate},
		{Object: "vec_b", Strategy: optimize.Interleave},
	}}
	if got := c.Key(); got != "vec_a=co-locate,vec_b=interleave" {
		t.Errorf("key = %q", got)
	}
	w := Candidate{WholeProgramInterleave: true}
	if w.Key() != "*=interleave" || w.String() != "interleave whole program" {
		t.Errorf("whole-program key %q / string %q", w.Key(), w.String())
	}
}

func TestEnumerate(t *testing.T) {
	top := topCFs("a", "b")
	// 4^2 - 1 assignments plus the whole-program interleave.
	cands := enumerate(top, 2)
	if len(cands) != 16 {
		t.Fatalf("2 objects enumerate %d candidates, want 16", len(cands))
	}
	seen := map[string]bool{}
	for _, c := range cands {
		k := c.Key()
		if seen[k] {
			t.Errorf("duplicate candidate %q", k)
		}
		seen[k] = true
		if !c.WholeProgramInterleave && len(c.Assignments) == 0 {
			t.Error("all-keep candidate enumerated")
		}
	}
	// maxCombo 1: 2 objects × 3 strategies + whole-program.
	if got := enumerate(top, 1); len(got) != 7 {
		t.Errorf("maxCombo 1 enumerates %d, want 7", len(got))
	}
}

func topCFs(names ...string) []diagnose.ObjectCF {
	var out []diagnose.ObjectCF
	for i, n := range names {
		cf := diagnose.ObjectCF{}
		cf.Object.Name = n
		cf.Object.Base = uint64(0x1000 * (i + 1))
		cf.Object.Size = 0x100
		out = append(out, cf)
	}
	return out
}

func TestSearchFindsSpeedupOnContended(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    program.Builder
		seed uint64
	}{
		{"sumv", micro.Sumv(micro.BigCentralized, 0), 41},
		{"dotv", micro.Dotv(micro.BigCentralized, 0), 43},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(contendedInput(t, tc.b, tc.seed), ecfgT(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Best == nil {
				t.Fatal("no best candidate")
			}
			if s := res.Speedup(); s < optimize.GroundTruthThreshold {
				t.Errorf("best placement %q speeds up only %.3fx, want >= %.2f",
					res.Best.Candidate, s, optimize.GroundTruthThreshold)
			}
			if got := res.Best.Comparison.Speedup(); got != res.Speedup() {
				t.Errorf("comparison speedup %.4f != result speedup %.4f", got, res.Speedup())
			}
			if res.Explored == 0 || res.Explored > len(res.Outcomes) {
				t.Errorf("explored %d of %d outcomes", res.Explored, len(res.Outcomes))
			}
		})
	}
}

func TestSearchCleanCaseNoRegression(t *testing.T) {
	in := profiledInput(t, micro.Sumv(micro.SmallShared, 0), program.Config{Threads: 16, Nodes: 4, Seed: 47})
	res, err := Run(in, ecfgT(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil && res.Speedup() >= optimize.GroundTruthThreshold {
		t.Errorf("clean case reports %.3fx speedup from %q", res.Speedup(), res.Best.Candidate)
	}
}

// setProcs sets GOMAXPROCS, which sizes the search's waves and each
// candidate run's parallel window, to n for the rest of the test.
func setProcs(tb testing.TB, n int) {
	tb.Helper()
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestSearchDeterministicAcrossWorkers pins the branch-and-bound design
// requirement: any GOMAXPROCS must produce a bit-identical Result — same
// chosen placement, same cycle counts, same abort set.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	workers := []int{1, 2, runtime.GOMAXPROCS(0)}
	in := contendedInput(t, micro.Sumv(micro.BigCentralized, 0), 53)
	var ref *Result
	for _, w := range workers {
		setProcs(t, w)
		res, err := Run(in, ecfgT(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("workers=%d: result differs from workers=%d", w, workers[0])
		}
	}
	if ref != nil && ref.Best == nil {
		t.Fatal("no best candidate on contended case")
	}
}

// TestPrunedMatchesExhaustive checks that the frontier cut plus the cycle
// budget still finds the same winner the exhaustive search does on the
// contended micro case.
func TestPrunedMatchesExhaustive(t *testing.T) {
	in := contendedInput(t, micro.Dotv(micro.BigCentralized, 0), 59)
	pruned, err := Run(in, ecfgT(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 1)
	exh, err := Run(in, ecfgT(), Config{Frontier: -1, DisableBudget: true})
	if err != nil {
		t.Fatal(err)
	}
	if exh.Best == nil || pruned.Best == nil {
		t.Fatal("missing best candidate")
	}
	if exh.Best.Candidate.Key() != pruned.Best.Candidate.Key() {
		t.Errorf("pruned best %q != exhaustive best %q",
			pruned.Best.Candidate.Key(), exh.Best.Candidate.Key())
	}
	if exh.Best.Cycles != pruned.Best.Cycles {
		t.Errorf("pruned best cycles %.0f != exhaustive %.0f", pruned.Best.Cycles, exh.Best.Cycles)
	}
	if exh.Pruned != 0 || exh.AbortedRuns != 0 {
		t.Errorf("exhaustive search pruned %d / aborted %d", exh.Pruned, exh.AbortedRuns)
	}
	if pruned.Pruned == 0 {
		t.Error("default config pruned nothing")
	}
	if pruned.Explored >= exh.Explored {
		t.Errorf("pruned explored %d, exhaustive %d", pruned.Explored, exh.Explored)
	}
}

// TestBudgetAbortsLosers checks the bound actually fires: with pruning on,
// later-wave runs that cannot beat the incumbent should abort. Dotv has two
// hot objects, so the frontier spans several waves.
func TestBudgetAbortsLosers(t *testing.T) {
	res, err := Run(contendedInput(t, micro.Dotv(micro.BigCentralized, 0), 61), ecfgT(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedRuns == 0 {
		t.Error("no candidate run was cut by the cycle budget")
	}
	for _, o := range res.Outcomes {
		if o.Aborted && o.Comparison.OptCycles != 0 {
			t.Errorf("aborted candidate %q carries a comparison", o.Candidate)
		}
	}
}

// TestSearchBaselineWithoutRecording covers a baseline that arrives without
// its window recording, as a decoded one does: the search measures the
// baseline again, recording, and every candidate replays it, so it
// simulates exactly one run's worth of accesses and reaches the outcome a
// recorded baseline gives, which itself simulates none — at GOMAXPROCS 1
// and 2.
func TestSearchBaselineWithoutRecording(t *testing.T) {
	in := contendedInput(t, micro.Dotv(micro.BigCentralized, 0), 59)
	acc := obs.Default.Counter("engine.window.accesses")
	a0 := acc.Value()
	base, err := optimize.MeasureBase(in.Builder, in.Machine, in.Cfg, ecfgT())
	if err != nil {
		t.Fatal(err)
	}
	once := acc.Value() - a0
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(base); err != nil {
		t.Fatal(err)
	}
	var bare engine.Result
	if err := gob.NewDecoder(&buf).Decode(&bare); err != nil {
		t.Fatal(err)
	}
	if bare.Recorded() {
		t.Fatal("a decoded baseline carries a recording")
	}
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		a0 = acc.Value()
		want, err := Run(in, ecfgT(), Config{Baseline: base})
		if err != nil {
			t.Fatal(err)
		}
		if d := acc.Value() - a0; d != 0 {
			t.Errorf("GOMAXPROCS=%d: search over a recorded baseline simulated %d accesses", procs, d)
		}
		a0 = acc.Value()
		got, err := Run(in, ecfgT(), Config{Baseline: &bare})
		if err != nil {
			t.Fatal(err)
		}
		if d := acc.Value() - a0; d != once {
			t.Errorf("GOMAXPROCS=%d: search over a bare baseline simulated %d accesses, want one run's %d", procs, d, once)
		}
		if !reflect.DeepEqual(got.Outcomes, want.Outcomes) || got.Explored != want.Explored || got.AbortedRuns != want.AbortedRuns {
			t.Errorf("GOMAXPROCS=%d: outcomes over a bare baseline differ from a recorded one", procs)
		}
		if got.Best == nil || got.Best.Candidate.Key() != want.Best.Candidate.Key() {
			t.Errorf("GOMAXPROCS=%d: best candidate differs", procs)
		}
	}
}
