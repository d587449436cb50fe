package engine

import (
	"reflect"
	"testing"

	"drbw/internal/memsim"
	"drbw/internal/pebs"
	"drbw/internal/topology"
	"drbw/internal/trace"
)

// budgetScan runs the standard contended scan with the given config.
func budgetScan(t *testing.T, cfg Config) *Result {
	t.Helper()
	m := topology.XeonE5_4650()
	res, _ := runScan(t, m, 16, 4, memsim.BindTo(0), cfg)
	return res
}

func TestCycleBudgetAbortsRun(t *testing.T) {
	full := budgetScan(t, testConfig(5))
	if full.Aborted {
		t.Fatal("unbudgeted run reported aborted")
	}
	cfg := testConfig(5)
	cfg.CycleBudget = full.Cycles / 2
	cut := budgetScan(t, cfg)
	if !cut.Aborted {
		t.Fatalf("run under budget %.0f (full %.0f) not aborted", cfg.CycleBudget, full.Cycles)
	}
	if cut.Cycles < cfg.CycleBudget {
		t.Errorf("aborted run reports %.0f cycles, below the %.0f budget", cut.Cycles, cfg.CycleBudget)
	}
	if cut.Cycles >= full.Cycles {
		t.Errorf("aborted run reports %.0f cycles, not cut short of %.0f", cut.Cycles, full.Cycles)
	}
	if len(cut.Phases) != 1 || !cut.Phases[0].Aborted {
		t.Errorf("aborted phase not marked: %+v", cut.Phases)
	}
}

func TestCycleBudgetAboveRunIsNoop(t *testing.T) {
	full := budgetScan(t, testConfig(6))
	cfg := testConfig(6)
	cfg.CycleBudget = full.Cycles * 2
	loose := budgetScan(t, cfg)
	if loose.Aborted {
		t.Fatal("budget above the full run aborted it")
	}
	if !reflect.DeepEqual(full, loose) {
		t.Error("an unexercised budget changed the result")
	}
}

func TestCycleBudgetMatchesReference(t *testing.T) {
	base := testConfig(7)
	full := budgetScan(t, base)
	for _, budget := range []float64{full.Cycles / 3, full.Cycles / 2, full.Cycles * 0.9} {
		cfg := base
		cfg.CycleBudget = budget
		fr := budgetScan(t, cfg)
		rr, _ := runScanOn(t, topology.XeonE5_4650(), 16, 4, memsim.BindTo(0), cfg, (*Engine).runRef)
		if !reflect.DeepEqual(fr, rr) {
			t.Errorf("budget %.0f: fast and reference paths disagree\nfast: %+v\nref:  %+v", budget, fr, rr)
		}
	}
}

// TestCycleBudgetSkipsLaterPhases pins the cross-phase saving: once the
// budget is spent, remaining phases are never simulated — windows included.
func TestCycleBudgetSkipsLaterPhases(t *testing.T) {
	m := topology.XeonE5_4650()
	as, ph, _, _ := scanWorkload(t, m, 16, memsim.BindTo(0), 2e6)
	ph2 := ph
	ph2.Name = "again"
	bind, err := EvenBinding(m, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) *Result {
		e, err := New(m, as, smallCaches(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run([]trace.Phase{ph, ph2}, bind)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(testConfig(8))
	if len(full.Phases) != 2 {
		t.Fatalf("full run executed %d phases", len(full.Phases))
	}
	cfg := testConfig(8)
	cfg.CycleBudget = full.Phases[0].Cycles * 1.01
	cut := run(cfg)
	if !cut.Aborted {
		t.Fatal("budgeted two-phase run not aborted")
	}
	if len(cut.Phases) >= 2 && !cut.Phases[1].Aborted {
		t.Errorf("second phase completed under a budget inside it: %+v", cut.Phases)
	}
}

// TestHostileOpsReserveCapped pins that the collector reservation, sized
// from untrusted workload specs, stays under the collector's ceiling: one
// thread claims 1e15 accesses under an unbounded collector, and a one-cycle
// budget stops the run after its first epoch.
func TestHostileOpsReserveCapped(t *testing.T) {
	m := topology.XeonE5_4650()
	as, ph, _, _ := scanWorkload(t, m, 16, memsim.BindTo(0), 2e6)
	ph.Threads[0].Ops = 1e15
	bind, err := EvenBinding(m, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	col := pebs.NewCollector(pebs.Config{}, 1)
	cfg := testConfig(8)
	cfg.Collector = col
	cfg.CycleBudget = 1
	e, err := New(m, as, smallCaches(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run([]trace.Phase{ph}, bind)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("one-cycle budget did not abort the run")
	}
	if bound := sampleBound([]trace.Phase{ph}, col.Period()); bound < 1e11 {
		t.Fatalf("bound %d does not reflect the hostile Ops", bound)
	}
	// 1<<18 is pebs' reservation ceiling for a collector without MaxKept.
	if c := col.Cap(); c > 1<<18 {
		t.Errorf("hostile spec reserved %d samples, past the 1<<18 ceiling", c)
	}
}
