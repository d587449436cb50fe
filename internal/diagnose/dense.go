package diagnose

// Dense all-channels CF accumulation for the fused single-pass analysis.
//
// A two-pass pipeline learns the contended channels between its passes:
// pass one classifies, pass two attributes CF for exactly those channels.
// A single-pass pipeline has no such luxury — classification needs the
// whole trace's features, so when a sample goes by, nobody yet knows which
// channels will matter. DenseCF resolves that by counting attribution for
// every remote node-to-node channel as the samples stream, into flat
// arrays indexed by (channel, table slot) — no maps, no branches on the
// contended set — and then projecting the counts onto whichever channels
// the classifier flags. Only remote channels (Src != Dst) are counted:
// classification runs over the machine's remote channels exclusively, so a
// local channel can never be contended, and skipping the samples that land
// on one (cache hits and node-local DRAM/LFB traffic — usually most of the
// trace) keeps the per-sample cost down. All state is integer counts, so
// for remote contended sets Restrict reproduces a directly-accumulated
// CFAccumulator bit for bit.

import (
	"fmt"

	"drbw/internal/alloc"
	"drbw/internal/cache"
	"drbw/internal/pebs"
	"drbw/internal/topology"
)

// SlotAttributor is an Attributor whose objects occupy dense slots
// 0..Len()-1 in ascending base-address order, so per-object counts can
// live in a flat array and lookups can binary-search the slot ranges.
// Object(SlotID(i)) must describe slot i's address range — DenseCF
// flattens those ranges for its per-sample search, and Lookup must agree
// with them. The range table (profiledata.Table) implements it.
type SlotAttributor interface {
	Attributor
	// SlotID returns the ID of the object occupying slot.
	SlotID(slot int) alloc.ObjectID
	// Len returns the number of slots.
	Len() int
}

// DenseCF accumulates CF attribution counts for every channel of an
// n-node machine at once, before the contended set is known. State is
// O(nodes² × slots) integers — independent of trace length — and Merge is
// integer addition, so per-worker accumulators merge exactly in any order.
type DenseCF struct {
	heap   SlotAttributor
	weight float64
	nodes  int
	slots  int
	// bases and limits flatten the slot ranges ([bases[i], limits[i]) is
	// slot i) so the per-sample lookup is one inline binary search over a
	// packed array instead of an interface call per sample — this runs once
	// per sample on the analysis hot path.
	bases, limits []uint64
	// counts holds slots+1 int64s per channel — one per table slot plus a
	// trailing unattributed bucket — for channel index src*nodes+dst. Every
	// counted sample lands in exactly one bucket of its channel's row, so
	// the row sum is the channel's sample count; no separate total is kept.
	// Local-channel (src == dst) rows stay zero.
	counts []int64
}

// NewDenseCF prepares dense accumulation over an n-node machine's channels.
// weight scales kept samples to true counts; non-positive means 1.
func NewDenseCF(heap SlotAttributor, nodes int, weight float64) *DenseCF {
	if weight <= 0 {
		weight = 1
	}
	slots := heap.Len()
	nn := nodes * nodes
	d := &DenseCF{
		heap: heap, weight: weight, nodes: nodes, slots: slots,
		bases:  make([]uint64, slots),
		limits: make([]uint64, slots),
		counts: make([]int64, nn*(slots+1)),
	}
	for i := 0; i < slots; i++ {
		o := heap.Object(heap.SlotID(i))
		d.bases[i] = o.Base
		d.limits[i] = o.Base + o.Size
	}
	return d
}

// Add accounts one chunk of samples. Every sample's nodes must already be
// validated against the machine (the analysis pipeline checks each block
// before accumulating). Samples that CFAccumulator.Add would file under a
// local channel — cache-level hits, which charge the source node's own
// channel, and DRAM/LFB traffic homed on its source node — are skipped:
// Restrict only ever projects onto remote channels.
func (d *DenseCF) Add(samples []pebs.Sample) {
	nodes, stride := d.nodes, d.slots+1
	bases, limits, counts := d.bases, d.limits, d.counts
	// Consecutive samples tend to touch the same object; remembering the
	// previous hit skips the search for them.
	last := -1
	for i := range samples {
		s := &samples[i]
		// One unsigned compare covers s.Level ∈ {L1, L2, L3}: the levels
		// ascend from L1 = 0, and invalid negatives wrap past L3.
		if s.HomeNode == s.SrcNode || uint(s.Level) <= uint(cache.L3) {
			continue // lands on a local channel, which is never contended
		}
		ci := int(s.SrcNode)*nodes + int(s.HomeNode)
		addr := s.Addr
		if last >= 0 && addr >= bases[last] && addr < limits[last] {
			counts[ci*stride+last]++
			continue
		}
		// First index with base > addr, then bounds-check its
		// predecessor — the same range rule Table.Lookup applies.
		lo, hi := 0, len(bases)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bases[mid] <= addr {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 && addr < limits[lo-1] {
			last = lo - 1
			counts[ci*stride+last]++
		} else {
			counts[ci*stride+d.slots]++
		}
	}
}

// Merge folds o's counts into d. Both must have been built over the same
// machine, table and weight. o is unchanged.
func (d *DenseCF) Merge(o *DenseCF) error {
	if d.nodes != o.nodes || d.slots != o.slots || d.weight != o.weight {
		return fmt.Errorf("diagnose: cannot merge dense CF accumulators with different shape (%d/%d nodes, %d/%d slots, weight %v/%v)",
			d.nodes, o.nodes, d.slots, o.slots, d.weight, o.weight)
	}
	for i := range d.counts {
		d.counts[i] += o.counts[i]
	}
	return nil
}

// Restrict projects the dense counts onto the contended channels,
// returning a CFAccumulator holding exactly the state that
// NewCFAccumulator(heap, contended, weight) followed by Add over the same
// samples would hold — integer counts carry over unchanged, so the
// resulting Report is bit-identical to direct accumulation. That promise
// covers the channels classification can produce: remote channels of the
// machine the counts were built for. Local (Src == Dst) channels and
// channels outside the machine contribute nothing.
func (d *DenseCF) Restrict(contended []topology.Channel) *CFAccumulator {
	a := NewCFAccumulator(d.heap, contended, d.weight)
	stride := d.slots + 1
	for idx, ch := range a.channels {
		if ch.Src == ch.Dst || int(ch.Src) < 0 || int(ch.Src) >= d.nodes || int(ch.Dst) < 0 || int(ch.Dst) >= d.nodes {
			continue
		}
		ci := int(ch.Src)*d.nodes + int(ch.Dst)
		row := d.counts[ci*stride : ci*stride+stride]
		var total int64
		for _, n := range row {
			total += n
		}
		a.count[idx] = total
		for slot, n := range row[:d.slots] {
			if n != 0 {
				id := d.heap.SlotID(slot)
				a.byObj[idx][id] += n
				a.totalByObj[id] += n
			}
		}
		a.unattr += row[d.slots]
	}
	return a
}
