package core

import (
	"reflect"
	"runtime"
	"testing"

	"drbw/internal/micro"
	"drbw/internal/topology"
)

// setProcs sets GOMAXPROCS, which sizes the batch pool and each run's
// parallel window, to n for the rest of the test.
func setProcs(tb testing.TB, n int) {
	tb.Helper()
	old := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestCollectTrainingDeterministic pins that the training set is a function
// of the seeds alone. The cache-resident mini-programs send no samples over
// a remote channel and their sockets issue exactly as many samples each, so
// the channel representing each run comes from the tie rule; repeated
// collections, serial and on a two-worker pool, must agree in every run's
// channel, vector and candidate statistics and in the dataset.
func TestCollectTrainingDeterministic(t *testing.T) {
	m := topology.XeonE5_4650()
	var set []micro.Instance
	for _, inst := range micro.TrainingSet() {
		switch inst.Builder.Name {
		case "sumv-small", "dotv-small", "countv-small":
			if l := inst.Cfg.Label(); l == "T8-N2" || l == "T16-N4" {
				set = append(set, inst)
			}
		}
	}
	if len(set) != 6 {
		t.Fatalf("picked %d tied instances, want 6", len(set))
	}
	// Instance holds the builder's Build func, which DeepEqual never
	// equates, and is an input anyway: compare everything derived from it.
	collect := func() ([]TrainingRun, any) {
		td, err := CollectTraining(m, DefaultEngineConfig(1), set)
		if err != nil {
			t.Fatal(err)
		}
		runs := append([]TrainingRun(nil), td.Runs...)
		for i := range runs {
			runs[i].Instance = micro.Instance{}
		}
		return runs, td.Dataset
	}
	setProcs(t, 1)
	wantRuns, wantData := collect()
	for _, workers := range []int{1, 2} {
		setProcs(t, workers)
		for run := 0; run < 5; run++ {
			if workers == 1 && run == 0 {
				continue // the reference collection
			}
			runs, data := collect()
			for i := range runs {
				if !reflect.DeepEqual(runs[i], wantRuns[i]) {
					t.Fatalf("workers %d run %d: %s %s differs: channel %v, want %v",
						workers, run, set[i].Builder.Name, set[i].Cfg.Label(), runs[i].Channel, wantRuns[i].Channel)
				}
			}
			if !reflect.DeepEqual(data, wantData) {
				t.Fatalf("workers %d run %d: dataset differs", workers, run)
			}
		}
	}
}
