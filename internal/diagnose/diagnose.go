// Package diagnose implements DR-BW's root-cause diagnoser (Section VI):
// once the classifier flags contended channels, samples on those channels
// are attributed to heap data objects and each object is charged a
// Contribution Fraction (CF).
//
// For one contended channel c and data object A:
//
//	CF_c(A) = Samples(c, A) / Samples(c, ALL)
//
// and across all contended channels:
//
//	CF(A) = Σ_c Samples(c, A) / Σ_c Samples(c, ALL)
//
// The objects with the highest CF are the root causes; the paper's fixes
// (co-locate, interleave, replicate) target exactly those objects.
package diagnose

import (
	"fmt"
	"sort"
	"strings"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// ObjectCF is one data object's contribution to contention.
type ObjectCF struct {
	Object  alloc.Object
	CF      float64
	Samples float64 // weighted sample count behind the CF
}

// Report is the diagnoser output for one profiled run.
type Report struct {
	// Contended lists the channels the classifier flagged, in input order.
	Contended []topology.Channel
	// PerChannel ranks objects within each contended channel.
	PerChannel map[topology.Channel][]ObjectCF
	// Overall ranks objects across all contended channels (CF sums to 1
	// together with UnattributedCF).
	Overall []ObjectCF
	// UnattributedCF is the fraction of contended-channel samples that hit
	// no live heap object — static or stack data the profiler does not
	// track (the paper leaves those to future work).
	UnattributedCF float64
}

// Attributor resolves addresses to data objects: the live profiler passes
// its *alloc.Heap; offline analysis passes a range table reconstructed from
// a recorded object list.
type Attributor interface {
	// Lookup attributes addr to a live data object.
	Lookup(addr uint64) (alloc.ObjectID, bool)
	// Object returns the descriptor of an ID Lookup returned.
	Object(id alloc.ObjectID) alloc.Object
}

// Analyze attributes the samples on the contended channels to heap objects.
// weight scales kept samples to true counts (pebs.Collector.Weight).
// Channels are processed in input order (duplicates collapsed), so the
// report is deterministic and matches the streaming CFAccumulator bit for
// bit. Reports restrict a DenseCF instead; Analyze serves local channels
// (internal/llc) and the tests' oracles.
func Analyze(heap Attributor, samples []pebs.Sample, contended []topology.Channel, weight float64) *Report {
	acc := NewCFAccumulator(heap, contended, weight)
	acc.Add(samples)
	return acc.Report()
}

// CFAccumulator is the incremental form of Analyze: feed sample chunks with
// Add as they stream off a recording, then call Report. State is bounded by
// the number of contended channels and live objects, never by the trace
// length. All state is integer sample counts — weights are applied as
// count×weight products at Report time — so accumulation is exact and
// commutative: the report is bit-identical to Analyze over the same sample
// multiset no matter how the trace was chunked or ordered. DenseCF.Restrict
// builds one from counts gathered before the contended set was known.
type CFAccumulator struct {
	heap       Attributor
	weight     float64
	channels   []topology.Channel       // deduped, input order
	index      map[topology.Channel]int // channel → position in channels
	count      []int64                  // per-channel sample count
	byObj      []map[alloc.ObjectID]int64
	totalByObj map[alloc.ObjectID]int64
	unattr     int64
}

// NewCFAccumulator prepares CF attribution for the given contended
// channels. weight scales kept samples to true counts; non-positive means 1.
func NewCFAccumulator(heap Attributor, contended []topology.Channel, weight float64) *CFAccumulator {
	if weight <= 0 {
		weight = 1
	}
	a := &CFAccumulator{
		heap:       heap,
		weight:     weight,
		index:      make(map[topology.Channel]int, len(contended)),
		totalByObj: map[alloc.ObjectID]int64{},
	}
	for _, ch := range contended {
		if _, dup := a.index[ch]; dup {
			continue
		}
		a.index[ch] = len(a.channels)
		a.channels = append(a.channels, ch)
		a.count = append(a.count, 0)
		a.byObj = append(a.byObj, map[alloc.ObjectID]int64{})
	}
	return a
}

// Add accounts one chunk of samples. Samples off the contended channels are
// ignored, exactly as Analyze ignores them.
func (a *CFAccumulator) Add(samples []pebs.Sample) {
	for i := range samples {
		s := &samples[i]
		ch := topology.Channel{Src: s.SrcNode, Dst: s.HomeNode}
		if s.Level == cache.L1 || s.Level == cache.L2 || s.Level == cache.L3 {
			ch.Dst = s.SrcNode
		}
		idx, ok := a.index[ch]
		if !ok {
			continue
		}
		a.count[idx]++
		if id, ok := a.heap.Lookup(s.Addr); ok {
			a.byObj[idx][id]++
			a.totalByObj[id]++
		} else {
			a.unattr++
		}
	}
}

// Report assembles the accumulated state into the same Report Analyze
// returns.
func (a *CFAccumulator) Report() *Report {
	rep := &Report{
		Contended:  append([]topology.Channel(nil), a.channels...),
		PerChannel: make(map[topology.Channel][]ObjectCF),
	}
	totalAll := 0.0
	for i, ch := range a.channels {
		if a.count[i] == 0 {
			continue
		}
		chTotal := float64(a.count[i]) * a.weight
		totalAll += chTotal
		rep.PerChannel[ch] = rank(a.heap, a.byObj[i], chTotal, a.weight)
	}
	if totalAll > 0 {
		rep.Overall = rank(a.heap, a.totalByObj, totalAll, a.weight)
		rep.UnattributedCF = float64(a.unattr) * a.weight / totalAll
	}
	return rep
}

func rank(heap Attributor, byObj map[alloc.ObjectID]int64, total, weight float64) []ObjectCF {
	out := make([]ObjectCF, 0, len(byObj))
	for id, cnt := range byObj {
		n := float64(cnt) * weight
		out = append(out, ObjectCF{Object: heap.Object(id), CF: n / total, Samples: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CF != out[j].CF {
			return out[i].CF > out[j].CF
		}
		return out[i].Object.ID < out[j].Object.ID
	})
	return out
}

// Top returns the highest-CF objects covering at least fraction `cover` of
// the contended samples (and at least one object if any exist).
func (r *Report) Top(cover float64) []ObjectCF {
	var out []ObjectCF
	acc := 0.0
	for _, o := range r.Overall {
		out = append(out, o)
		acc += o.CF
		if acc >= cover {
			break
		}
	}
	return out
}

// String renders the overall ranking like the paper's Figure 4 data.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "contended channels: ")
	if len(r.Contended) == 0 {
		b.WriteString("none\n")
		return b.String()
	}
	for i, ch := range r.Contended {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ch.String())
	}
	b.WriteByte('\n')
	for _, o := range r.Overall {
		fmt.Fprintf(&b, "  CF %5.1f%%  %-20s %s\n", 100*o.CF, o.Object.Name, o.Object.Site)
	}
	if r.UnattributedCF > 0 {
		fmt.Fprintf(&b, "  CF %5.1f%%  %-20s (static/stack data, not tracked)\n", 100*r.UnattributedCF, "<unattributed>")
	}
	return b.String()
}
