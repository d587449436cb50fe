package diagnose

import (
	"math/rand"
	"reflect"
	"testing"

	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// contentionTrace builds a stream with traffic on several channels, some
// attributed to heap objects and some not.
func contentionTrace(t *testing.T, n int, seed int64) ([]pebs.Sample, []topology.Channel, Attributor) {
	t.Helper()
	h, ids := setup(t)
	rng := rand.New(rand.NewSource(seed))
	samples := make([]pebs.Sample, n)
	for i := range samples {
		s := memSample(h, ids[rng.Intn(len(ids))], uint64(rng.Intn(1<<20)), topology.NodeID(rng.Intn(4)), 0)
		s.Time = float64(i * 50)
		s.Latency = float64(200 + rng.Intn(700))
		if rng.Intn(5) == 0 {
			s.Addr = 0x10 // below the heap: unattributed
		}
		if rng.Intn(7) == 0 {
			s.Level = cache.L2 // folds onto the local channel
		}
		samples[i] = s
	}
	contended := []topology.Channel{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 3}}
	return samples, contended, h
}

// TestCFAccumulatorChunkedMatchesAnalyze pins the streaming contract: any
// chunking of the trace produces a report bit-identical to Analyze on the
// whole slice.
func TestCFAccumulatorChunkedMatchesAnalyze(t *testing.T) {
	samples, contended, heap := contentionTrace(t, 4000, 1)
	want := Analyze(heap, samples, contended, 2.5)

	for _, chunk := range []int{1, 13, 256, len(samples)} {
		acc := NewCFAccumulator(heap, contended, 2.5)
		for start := 0; start < len(samples); start += chunk {
			end := start + chunk
			if end > len(samples) {
				end = len(samples)
			}
			acc.Add(samples[start:end])
		}
		got := acc.Report()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: streamed report differs from Analyze", chunk)
		}
	}
}

// TestAnalyzeDeterministicAcrossDuplicates pins the input-order channel
// processing: duplicated contended channels collapse, and repeated calls
// yield identical reports.
func TestAnalyzeDeterministicAcrossDuplicates(t *testing.T) {
	samples, contended, heap := contentionTrace(t, 1000, 2)
	dup := append(append([]topology.Channel{}, contended...), contended[0], contended[1])
	want := Analyze(heap, samples, contended, 2.5)
	got := Analyze(heap, samples, dup, 2.5)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("duplicated contended channels changed the report")
	}
	for i := 0; i < 5; i++ {
		if !reflect.DeepEqual(Analyze(heap, samples, contended, 2.5), want) {
			t.Fatal("Analyze is not deterministic")
		}
	}
}

// TestTimelineAccumulatorMatchesTimeline pins the streaming
// timeline against the slice implementation, bit for bit, across
// chunkings.
func TestTimelineAccumulatorMatchesTimeline(t *testing.T) {
	samples, _, _ := contentionTrace(t, 3000, 3)
	const n, weight = 32, 2.5
	want := Timeline(samples, n, weight)

	for _, chunk := range []int{1, 17, 512, len(samples)} {
		acc := NewTimelineAccumulator(n, weight)
		feed := func(fn func([]pebs.Sample)) {
			for start := 0; start < len(samples); start += chunk {
				end := start + chunk
				if end > len(samples) {
					end = len(samples)
				}
				fn(samples[start:end])
			}
		}
		feed(acc.Observe)
		feed(acc.Add)
		got := acc.Buckets()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: streamed timeline differs", chunk)
		}
	}
}

// TestTimelineAccumulatorEdgeCases mirrors Timeline's nil returns.
func TestTimelineAccumulatorEdgeCases(t *testing.T) {
	if got := NewTimelineAccumulator(8, 1).Buckets(); got != nil {
		t.Fatalf("no samples: got %v, want nil", got)
	}
	if got := NewTimelineAccumulator(0, 1).Buckets(); got != nil {
		t.Fatalf("zero buckets: got %v, want nil", got)
	}
	// One sample: single bucket span fallback, same as Timeline.
	one := []pebs.Sample{{Time: 42, Level: cache.MEM, SrcNode: 0, HomeNode: 1, Latency: 300}}
	acc := NewTimelineAccumulator(4, 1)
	acc.Observe(one)
	acc.Add(one)
	if !reflect.DeepEqual(acc.Buckets(), Timeline(one, 4, 1)) {
		t.Fatal("single-sample timeline differs")
	}
}
