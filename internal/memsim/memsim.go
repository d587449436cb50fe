// Package memsim simulates physical memory placement on a NUMA machine: a
// virtual address space divided into pages, each page resident on one NUMA
// node (or replicated across several).
//
// It stands in for the OS page tables plus libnuma. DR-BW's profiler calls
// libnuma's move_pages-style query to find the node holding a sampled
// address; AddressSpace.NodeOf is that query. The placement policies mirror
// what the paper's optimizations manipulate:
//
//   - FirstTouch — the Linux default: a page lands on the node of the first
//     thread that touches it. Serial initialization by a master thread
//     therefore concentrates all pages on one node, the classic cause of
//     remote bandwidth contention.
//   - Bind — explicit placement on one node (numa_alloc_onnode).
//   - Interleave — pages distributed round-robin across a node set
//     (numactl --interleave), the paper's baseline optimization.
//   - Replicate — a read-only region duplicated on every node in a set, the
//     paper's streamcluster optimization; each reader hits its local copy.
package memsim

import (
	"fmt"
	"sort"

	"drbw/internal/topology"
)

// PolicyKind enumerates supported page-placement policies.
type PolicyKind int

// Placement policy kinds.
const (
	FirstTouch PolicyKind = iota
	Bind
	Interleave
	Replicate
)

// String names the policy kind.
func (k PolicyKind) String() string {
	switch k {
	case FirstTouch:
		return "first-touch"
	case Bind:
		return "bind"
	case Interleave:
		return "interleave"
	case Replicate:
		return "replicate"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// Policy describes how the pages of one region are placed.
type Policy struct {
	Kind PolicyKind
	// Node is the target node for Bind.
	Node topology.NodeID
	// Nodes is the node set for Interleave and Replicate. Empty means all
	// nodes of the machine.
	Nodes []topology.NodeID
}

// BindTo returns a Bind policy for node.
func BindTo(node topology.NodeID) Policy { return Policy{Kind: Bind, Node: node} }

// InterleaveAll returns an Interleave policy over every node.
func InterleaveAll() Policy { return Policy{Kind: Interleave} }

// ReplicateAll returns a Replicate policy over every node.
func ReplicateAll() Policy { return Policy{Kind: Replicate} }

// FirstTouchPolicy returns the default first-touch policy.
func FirstTouchPolicy() Policy { return Policy{Kind: FirstTouch} }

// region is one mapped range of the simulated address space.
type region struct {
	base uint64
	size uint64
	pol  Policy
	// pageNodes holds the resolved node per page for FirstTouch, Bind and
	// Interleave. topology.InvalidNode marks an untouched first-touch page.
	pageNodes []topology.NodeID
	pageSize  uint64
	huge      bool
}

func (r *region) contains(addr uint64) bool {
	return addr >= r.base && addr < r.base+r.size
}

func (r *region) pageIndex(addr uint64) int {
	return int((addr - r.base) / r.pageSize)
}

// AddressSpace is a simulated virtual address space on one machine. It is
// not safe for concurrent use — even lookups update the region cache; the
// engine resolves accesses through Readers and mutates the space between
// windows.
type AddressSpace struct {
	machine *topology.Machine
	regions []*region // sorted by base, non-overlapping

	// findHit caches the region of the last successful find: access streams
	// are highly local, so the binary search is nearly always redundant.
	// Dropped whenever the region list changes.
	findHit *region
}

// NewAddressSpace returns an empty address space for machine m.
func NewAddressSpace(m *topology.Machine) *AddressSpace {
	return &AddressSpace{machine: m}
}

// Machine returns the machine this address space belongs to.
func (as *AddressSpace) Machine() *topology.Machine { return as.machine }

// nodeSet resolves the node set of a policy, defaulting to all nodes.
func (as *AddressSpace) nodeSet(p Policy) []topology.NodeID {
	if len(p.Nodes) > 0 {
		return p.Nodes
	}
	all := make([]topology.NodeID, as.machine.Nodes())
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	return all
}

// Map creates a new region [base, base+size) with the given placement. The
// region must be page-aligned and must not overlap an existing region. Huge
// regions use the machine's huge-page size (the bandit micro benchmark maps
// huge pages to get a deterministic page-offset→cache-set mapping).
func (as *AddressSpace) Map(base, size uint64, pol Policy, huge bool) error {
	pageSize := uint64(as.machine.PageSize())
	if huge {
		pageSize = uint64(as.machine.HugePageSize())
	}
	if size == 0 {
		return fmt.Errorf("memsim: cannot map empty region at %#x", base)
	}
	if base%pageSize != 0 {
		return fmt.Errorf("memsim: base %#x not aligned to page size %d", base, pageSize)
	}
	if pol.Kind == Bind {
		if pol.Node < 0 || int(pol.Node) >= as.machine.Nodes() {
			return fmt.Errorf("memsim: bind to invalid node %d", pol.Node)
		}
	}
	for _, n := range pol.Nodes {
		if n < 0 || int(n) >= as.machine.Nodes() {
			return fmt.Errorf("memsim: policy references invalid node %d", n)
		}
	}
	// Round the region size up to whole pages.
	pages := int((size + pageSize - 1) / pageSize)
	r := &region{base: base, size: uint64(pages) * pageSize, pol: pol, pageSize: pageSize, huge: huge}

	idx := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].base >= base })
	if idx > 0 {
		prev := as.regions[idx-1]
		if prev.base+prev.size > base {
			return fmt.Errorf("memsim: region %#x+%#x overlaps existing %#x+%#x", base, size, prev.base, prev.size)
		}
	}
	if idx < len(as.regions) {
		next := as.regions[idx]
		if base+r.size > next.base {
			return fmt.Errorf("memsim: region %#x+%#x overlaps existing %#x+%#x", base, size, next.base, next.size)
		}
	}

	switch pol.Kind {
	case FirstTouch:
		r.pageNodes = make([]topology.NodeID, pages)
		for i := range r.pageNodes {
			r.pageNodes[i] = topology.InvalidNode
		}
	case Bind:
		r.pageNodes = make([]topology.NodeID, pages)
		for i := range r.pageNodes {
			r.pageNodes[i] = pol.Node
		}
	case Interleave:
		set := as.nodeSet(pol)
		r.pageNodes = make([]topology.NodeID, pages)
		for i := range r.pageNodes {
			r.pageNodes[i] = set[i%len(set)]
		}
	case Replicate:
		// No per-page node: resolved against the accessor at access time.
	default:
		return fmt.Errorf("memsim: unknown policy kind %d", pol.Kind)
	}

	as.regions = append(as.regions, nil)
	copy(as.regions[idx+1:], as.regions[idx:])
	as.regions[idx] = r
	as.findHit = nil
	return nil
}

// Unmap removes the region starting exactly at base.
func (as *AddressSpace) Unmap(base uint64) error {
	idx := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].base >= base })
	if idx == len(as.regions) || as.regions[idx].base != base {
		return fmt.Errorf("memsim: no region mapped at %#x", base)
	}
	as.regions = append(as.regions[:idx], as.regions[idx+1:]...)
	as.findHit = nil
	return nil
}

// find returns the region containing addr, or nil.
func (as *AddressSpace) find(addr uint64) *region {
	if r := as.findHit; r != nil && r.contains(addr) {
		return r
	}
	idx := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].base > addr })
	if idx == 0 {
		return nil
	}
	r := as.regions[idx-1]
	if !r.contains(addr) {
		return nil
	}
	as.findHit = r
	return r
}

// Mapped reports whether addr falls inside any mapped region.
func (as *AddressSpace) Mapped(addr uint64) bool { return as.find(addr) != nil }

// Touch resolves first-touch placement: if the page holding addr is an
// unresolved first-touch page, it becomes resident on toucher's node. For
// all other policies Touch is a no-op. It returns the page's node after the
// touch (for Replicate: the toucher's node, i.e. the local copy).
func (as *AddressSpace) Touch(addr uint64, toucher topology.NodeID) topology.NodeID {
	r := as.find(addr)
	if r == nil {
		return topology.InvalidNode
	}
	if r.pol.Kind == Replicate {
		return toucher
	}
	pi := r.pageIndex(addr)
	if r.pol.Kind == FirstTouch && r.pageNodes[pi] == topology.InvalidNode {
		r.pageNodes[pi] = toucher
	}
	return r.pageNodes[pi]
}

// NodeOf is the libnuma-style query: which node holds addr? Untouched
// first-touch pages report InvalidNode (libnuma reports such pages as not
// present). Replicated pages report the first node of the replica set, which
// is what a page-table query would surface for the canonical copy.
func (as *AddressSpace) NodeOf(addr uint64) topology.NodeID {
	r := as.find(addr)
	if r == nil {
		return topology.InvalidNode
	}
	if r.pol.Kind == Replicate {
		return as.nodeSet(r.pol)[0]
	}
	return r.pageNodes[r.pageIndex(addr)]
}

// Reader is a read-only resolver over a frozen AddressSpace. It never
// mutates the space — not even its region cache — so any number of Readers
// may resolve concurrently from different goroutines, as long as nothing
// mutates the space (Map/Unmap/SetPolicy/Touch) while they are in use. The parallel window execution creates one Reader
// per thread group, records would-be first touches locally, and commits the
// arbitrated winners through Touch after the groups join.
//
// A Reader caches region and page lookups privately; it must be discarded
// after any placement mutation.
type Reader struct {
	as      *AddressSpace
	findHit *region
	// memo is a direct-mapped cache of recent resolutions at page
	// granularity, keyed by (page, accessor). It is sized so the engine's
	// round-robin thread interleave — where consecutive lookups come from
	// different threads on different pages — still hits on each thread's
	// current page.
	memo [memoSize]readerMemoEntry
}

const memoSize = 128 // power of two

func memoSlot(addr uint64, accessor topology.NodeID) uint64 {
	return (addr>>12 ^ uint64(accessor)*0x9e3779b9) & (memoSize - 1)
}

// readerMemoEntry caches one resolved (page, accessor) pair. end == 0 marks
// an empty slot (unmapped addresses are never memoized). node is
// topology.InvalidNode for a first-touch page that was untouched at read
// time.
type readerMemoEntry struct {
	start, end uint64
	accessor   topology.NodeID
	node       topology.NodeID
}

// NewReader returns a read-only resolver over the space's current placement.
func (as *AddressSpace) NewReader() *Reader { return &Reader{as: as} }

// find is AddressSpace.find with the last-hit cache kept on the Reader, so
// concurrent Readers never write shared state.
func (rd *Reader) find(addr uint64) *region {
	if r := rd.findHit; r != nil && r.contains(addr) {
		return r
	}
	regions := rd.as.regions
	idx := sort.Search(len(regions), func(i int) bool { return regions[i].base > addr })
	if idx == 0 {
		return nil
	}
	r := regions[idx-1]
	if !r.contains(addr) {
		return nil
	}
	rd.findHit = r
	return r
}

// Resolve reports which node serves an access to addr issued from
// accessor's node. It differs from NodeOf only for replicated regions,
// where each accessor reads its local replica if its node is in the
// replica set. It does not resolve first touches: an untouched first-touch
// page reports node == topology.InvalidNode and its page bounds, leaving
// the placement decision to the caller, who commits it through Touch and
// takes a fresh Reader. An unmapped addr reports (InvalidNode, 0, 0).
func (rd *Reader) Resolve(addr uint64, accessor topology.NodeID) (node topology.NodeID, start, end uint64) {
	slot := &rd.memo[memoSlot(addr, accessor)]
	if slot.end != 0 && slot.accessor == accessor && addr >= slot.start && addr < slot.end {
		return slot.node, slot.start, slot.end
	}
	return rd.resolveSlow(addr, accessor, slot)
}

// resolveSlow handles a memo miss and refills the caller's slot; split out
// so the memo-hit path of Resolve inlines into the engine's access loop.
func (rd *Reader) resolveSlow(addr uint64, accessor topology.NodeID, slot *readerMemoEntry) (topology.NodeID, uint64, uint64) {
	r := rd.find(addr)
	if r == nil {
		return topology.InvalidNode, 0, 0
	}
	var node topology.NodeID
	if r.pol.Kind == Replicate {
		set := rd.as.nodeSet(r.pol)
		node = set[0]
		for _, n := range set {
			if n == accessor {
				node = accessor
				break
			}
		}
	} else {
		node = r.pageNodes[r.pageIndex(addr)]
	}
	start := r.base + uint64(r.pageIndex(addr))*r.pageSize
	slot.accessor = accessor
	slot.start, slot.end = start, start+r.pageSize
	slot.node = node
	return node, slot.start, slot.end
}

// PolicyOf returns the placement policy of the region containing addr.
func (as *AddressSpace) PolicyOf(addr uint64) (Policy, bool) {
	r := as.find(addr)
	if r == nil {
		return Policy{}, false
	}
	return r.pol, true
}

// SetPolicy rebinds the region starting at base to a new policy, migrating
// its pages accordingly. This models numa_migrate_pages / a re-allocation
// with a different placement, which is how the optimizer applies interleave,
// co-locate and replicate fixes without rebuilding the workload.
func (as *AddressSpace) SetPolicy(base uint64, pol Policy) error {
	idx := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].base >= base })
	if idx == len(as.regions) || as.regions[idx].base != base {
		return fmt.Errorf("memsim: no region mapped at %#x", base)
	}
	r := as.regions[idx]
	size := r.size
	huge := r.huge
	if err := as.Unmap(base); err != nil {
		return err
	}
	return as.Map(base, size, pol, huge)
}

// RegionBases returns the base address of every mapped region in address
// order. numactl-style whole-process policies (interleave everything,
// including static data) iterate these.
func (as *AddressSpace) RegionBases() []uint64 {
	out := make([]uint64, len(as.regions))
	for i, r := range as.regions {
		out[i] = r.base
	}
	return out
}

// ResidencyHistogram counts the resolved pages per node across all regions;
// useful for asserting placement in tests and reports. Unresolved
// first-touch pages and replicated regions are not counted.
func (as *AddressSpace) ResidencyHistogram() map[topology.NodeID]int {
	h := make(map[topology.NodeID]int)
	for _, r := range as.regions {
		for _, n := range r.pageNodes {
			if n != topology.InvalidNode {
				h[n]++
			}
		}
	}
	return h
}
