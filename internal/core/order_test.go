package core

import (
	"math/rand"
	"reflect"
	"testing"

	"drbw/internal/features"
	"drbw/internal/llc"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
	"drbw/internal/program"
	"drbw/internal/topology"
	"drbw/internal/workloads"
)

// orderOutputs is everything the sample consumers derive from one run.
type orderOutputs struct {
	vectors    map[topology.Channel]features.Vector
	candidates []map[string]float64 // whole run, then each source socket
	llc        []llc.Vector
	report     any
}

func orderOutputsOf(t *testing.T, m *topology.Machine, d *Detector, table *profiledata.Table, samples []pebs.Sample, weight float64) orderOutputs {
	t.Helper()
	var out orderOutputs
	out.vectors = features.ChannelVectors(m, samples, weight, d.MinSamples)
	out.candidates = append(out.candidates, features.Candidates(samples, weight))
	for n := 0; n < m.Nodes(); n++ {
		var batch []pebs.Sample
		for _, s := range samples {
			if s.SrcNode == topology.NodeID(n) {
				batch = append(batch, s)
			}
		}
		out.candidates = append(out.candidates, features.Candidates(batch, weight))
		out.llc = append(out.llc, llc.Extract(samples, topology.NodeID(n), weight))
	}
	sw := NewSweep(m)
	sw.Reset(table, weight)
	if err := sw.Add(samples); err != nil {
		t.Fatal(err)
	}
	contended, diag, timeline := sw.Finish(d)
	out.report = []any{contended, diag, timeline}
	return out
}

// TestSampleOrderInvariance pins that no consumer of a profiled run
// depends on sample order, which is what lets the collector hand samples
// over in emission order and only a recording sort them: feature vectors,
// candidate statistics, the cache-contention vectors and the whole sweep
// report are identical over emission, reversed and shuffled order. Every
// value is a positive-latency sum or a count, so == on the floats is bit
// equality.
func TestSampleOrderInvariance(t *testing.T) {
	_, d := trainReduced(t)
	m := topology.XeonE5_4650()
	sc, _ := workloads.ByName("Streamcluster")
	p, samples, weight, err := Profile(sc.Builder, m, program.Config{Threads: 32, Nodes: 4, Input: "native", Seed: 77}, d.Ecfg, d.Ccfg)
	if err != nil {
		t.Fatal(err)
	}
	table, err := profiledata.NewTable(p.Heap.Live())
	if err != nil {
		t.Fatal(err)
	}
	want := orderOutputsOf(t, m, d, table, samples, weight)
	if want.report.([]any)[1] == nil {
		t.Fatal("Streamcluster T32-N4 not diagnosed; the sweep report is not exercised")
	}

	reversed := make([]pebs.Sample, len(samples))
	for i, s := range samples {
		reversed[len(samples)-1-i] = s
	}
	shuffled := append([]pebs.Sample(nil), samples...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for name, order := range map[string][]pebs.Sample{"reversed": reversed, "shuffled": shuffled} {
		got := orderOutputsOf(t, m, d, table, order, weight)
		if !reflect.DeepEqual(got.vectors, want.vectors) {
			t.Errorf("%s: features.ChannelVectors differs", name)
		}
		if !reflect.DeepEqual(got.candidates, want.candidates) {
			t.Errorf("%s: features.Candidates differs", name)
		}
		if !reflect.DeepEqual(got.llc, want.llc) {
			t.Errorf("%s: llc.Extract differs", name)
		}
		if !reflect.DeepEqual(got.report, want.report) {
			t.Errorf("%s: core.Sweep report differs", name)
		}
	}
}
