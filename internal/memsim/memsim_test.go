package memsim

import (
	"testing"
	"testing/quick"

	"drbw/internal/topology"
)

const mb = 1 << 20

func space(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(topology.Uniform(4, 4))
}

func TestMapValidation(t *testing.T) {
	as := space(t)
	if err := as.Map(0x1000, 0, BindTo(0), false); err == nil {
		t.Error("empty region accepted")
	}
	if err := as.Map(0x1001, 4096, BindTo(0), false); err == nil {
		t.Error("unaligned base accepted")
	}
	if err := as.Map(0x1000, 4096, BindTo(99), false); err == nil {
		t.Error("bind to nonexistent node accepted")
	}
	if err := as.Map(0x1000, 4096, Policy{Kind: Interleave, Nodes: []topology.NodeID{0, 17}}, false); err == nil {
		t.Error("interleave over nonexistent node accepted")
	}
	if err := as.Map(0x10000, mb, BindTo(1), false); err != nil {
		t.Fatalf("valid map failed: %v", err)
	}
	if err := as.Map(0x10000+4096, 4096, BindTo(1), false); err == nil {
		t.Error("overlapping map accepted")
	}
	if err := as.Map(0x0, 0x10000+4096, BindTo(1), false); err == nil {
		t.Error("map overlapping from below accepted")
	}
}

func TestBindPlacement(t *testing.T) {
	as := space(t)
	if err := as.Map(0x100000, mb, BindTo(2), false); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < mb; off += 4096 {
		if n := as.NodeOf(0x100000 + off); n != 2 {
			t.Fatalf("page at +%#x on node %d, want 2", off, n)
		}
	}
	if as.NodeOf(0x100000+mb) != topology.InvalidNode {
		t.Error("address past region should be unmapped")
	}
	if as.NodeOf(0xfffff) != topology.InvalidNode {
		t.Error("address before region should be unmapped")
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	as := space(t)
	if err := as.Map(0x100000, 16*4096, InterleaveAll(), false); err != nil {
		t.Fatal(err)
	}
	counts := make(map[topology.NodeID]int)
	for p := 0; p < 16; p++ {
		addr := uint64(0x100000 + p*4096)
		n := as.NodeOf(addr)
		counts[n]++
		if want := topology.NodeID(p % 4); n != want {
			t.Fatalf("page %d on node %d, want %d", p, n, want)
		}
	}
	for n, c := range counts {
		if c != 4 {
			t.Errorf("node %d holds %d pages, want 4", n, c)
		}
	}
}

func TestInterleaveOnSubset(t *testing.T) {
	as := space(t)
	if err := as.Map(0x100000, 8*4096, Policy{Kind: Interleave, Nodes: []topology.NodeID{1, 3}}, false); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		n := as.NodeOf(uint64(0x100000 + p*4096))
		if n != 1 && n != 3 {
			t.Fatalf("page %d on node %d, want 1 or 3", p, n)
		}
	}
}

func TestFirstTouchResolution(t *testing.T) {
	as := space(t)
	if err := as.Map(0x100000, 4*4096, FirstTouchPolicy(), false); err != nil {
		t.Fatal(err)
	}
	if n := as.NodeOf(0x100000); n != topology.InvalidNode {
		t.Fatalf("untouched page resolved to node %d", n)
	}
	if n := as.Touch(0x100000, 3); n != 3 {
		t.Fatalf("Touch returned %d, want 3", n)
	}
	// Second touch from a different node must not migrate the page.
	if n := as.Touch(0x100000, 1); n != 3 {
		t.Fatalf("second touch moved page to %d", n)
	}
	if n := as.NodeOf(0x100000); n != 3 {
		t.Fatalf("NodeOf after touch = %d, want 3", n)
	}
	// Pages are independent: the next page is still untouched.
	if n := as.NodeOf(0x100000 + 4096); n != topology.InvalidNode {
		t.Fatalf("neighbouring page already resolved to %d", n)
	}
}

func TestHomeForDemandZero(t *testing.T) {
	as := space(t)
	if err := as.Map(0x100000, 4096, FirstTouchPolicy(), false); err != nil {
		t.Fatal(err)
	}
	// A Reader leaves the untouched page to the caller, whose first touch
	// places it.
	if n := homeOf(as.NewReader(), 0x100000, 2); n != topology.InvalidNode {
		t.Fatalf("Reader resolved the untouched page to %d", n)
	}
	if n := as.Touch(0x100000, 2); n != 2 {
		t.Fatalf("first touch of an untouched page = %d, want 2", n)
	}
	if n := as.NodeOf(0x100000); n != 2 {
		t.Fatalf("page not persisted on node 2, got %d", n)
	}
}

func TestReplicateServesLocal(t *testing.T) {
	as := space(t)
	if err := as.Map(0x100000, mb, ReplicateAll(), false); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		if got := homeOf(as.NewReader(), 0x100000, topology.NodeID(n)); got != topology.NodeID(n) {
			t.Fatalf("accessor on node %d served from node %d", n, got)
		}
	}
	// NodeOf reports the canonical (first) replica.
	if got := as.NodeOf(0x100000); got != 0 {
		t.Fatalf("canonical replica on node %d, want 0", got)
	}
}

func TestReplicateSubsetFallsBack(t *testing.T) {
	as := space(t)
	pol := Policy{Kind: Replicate, Nodes: []topology.NodeID{1, 2}}
	if err := as.Map(0x100000, mb, pol, false); err != nil {
		t.Fatal(err)
	}
	rd := as.NewReader()
	if got := homeOf(rd, 0x100000, 3); got != 1 {
		t.Fatalf("accessor outside replica set served from %d, want canonical 1", got)
	}
	if got := homeOf(rd, 0x100000, 2); got != 2 {
		t.Fatalf("accessor in replica set served from %d, want local 2", got)
	}
}

func TestSetPolicyMigrates(t *testing.T) {
	as := space(t)
	if err := as.Map(0x100000, 8*4096, BindTo(0), false); err != nil {
		t.Fatal(err)
	}
	if err := as.SetPolicy(0x100000, InterleaveAll()); err != nil {
		t.Fatal(err)
	}
	h := as.ResidencyHistogram()
	for n := topology.NodeID(0); n < 4; n++ {
		if h[n] != 2 {
			t.Fatalf("after migration node %d holds %d pages, want 2: %v", n, h[n], h)
		}
	}
	if err := as.SetPolicy(0x999000, BindTo(0)); err == nil {
		t.Error("SetPolicy on unmapped base accepted")
	}
}

func TestUnmap(t *testing.T) {
	as := space(t)
	if err := as.Map(0x100000, 4096, BindTo(0), false); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x100000); err != nil {
		t.Fatal(err)
	}
	if as.Mapped(0x100000) {
		t.Error("address still mapped after Unmap")
	}
	if err := as.Unmap(0x100000); err == nil {
		t.Error("double unmap accepted")
	}
}

func TestHugePageGranularity(t *testing.T) {
	as := space(t)
	huge := uint64(as.Machine().HugePageSize())
	if err := as.Map(huge, 2*huge, InterleaveAll(), true); err != nil {
		t.Fatal(err)
	}
	// All addresses inside one huge page resolve to the same node.
	n0 := as.NodeOf(huge)
	if got := as.NodeOf(huge + huge - 64); got != n0 {
		t.Fatalf("same huge page split across nodes %d and %d", n0, got)
	}
	if got := as.NodeOf(2 * huge); got == n0 {
		t.Fatalf("adjacent huge pages both on node %d under interleave", n0)
	}
}

func TestPolicyKindString(t *testing.T) {
	for k, want := range map[PolicyKind]string{
		FirstTouch: "first-touch", Bind: "bind", Interleave: "interleave",
		Replicate: "replicate", PolicyKind(9): "PolicyKind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("PolicyKind %d = %q, want %q", int(k), got, want)
		}
	}
}

// Property: under interleave over all nodes, page residency is balanced to
// within one page for any region size.
func TestInterleaveBalanceProperty(t *testing.T) {
	f := func(pages uint16) bool {
		p := int(pages%512) + 1
		as := NewAddressSpace(topology.Uniform(4, 2))
		if err := as.Map(0x100000, uint64(p)*4096, InterleaveAll(), false); err != nil {
			return false
		}
		h := as.ResidencyHistogram()
		min, max := p, 0
		for n := topology.NodeID(0); n < 4; n++ {
			if h[n] < min {
				min = h[n]
			}
			if h[n] > max {
				max = h[n]
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Touch is idempotent and NodeOf agrees with the first toucher.
func TestFirstTouchProperty(t *testing.T) {
	f := func(pageSel uint8, node0, node1 uint8) bool {
		as := NewAddressSpace(topology.Uniform(4, 2))
		if err := as.Map(0x100000, 16*4096, FirstTouchPolicy(), false); err != nil {
			return false
		}
		addr := uint64(0x100000 + int(pageSel%16)*4096)
		a := topology.NodeID(node0 % 4)
		b := topology.NodeID(node1 % 4)
		first := as.Touch(addr, a)
		second := as.Touch(addr, b)
		return first == a && second == a && as.NodeOf(addr) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
