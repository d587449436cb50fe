package memsim

import (
	"testing"

	"drbw/internal/topology"
)

// Reader memoizes resolutions per (page, accessor), and the space caches
// its last region lookup. Neither may serve a stale node: after a
// placement mutation (Map/Unmap/SetPolicy/first touch) a fresh Reader must
// see the new placement. These tests resolve the same (addr, accessor)
// pairs before and after each kind of mutation, repeating lookups so the
// later ones hit the memo.

func memoSpace(t *testing.T) *AddressSpace {
	t.Helper()
	m := topology.XeonE5_4650()
	return NewAddressSpace(m)
}

// homeOf resolves addr for accessor through rd, dropping the page bounds.
func homeOf(rd *Reader, addr uint64, accessor topology.NodeID) topology.NodeID {
	n, _, _ := rd.Resolve(addr, accessor)
	return n
}

func TestHomeForNotStaleAfterSetPolicy(t *testing.T) {
	as := memoSpace(t)
	base := uint64(0x100000)
	size := uint64(16 * 4096)
	if err := as.Map(base, size, BindTo(0), false); err != nil {
		t.Fatal(err)
	}
	// Warm a Reader's memo on every page for two accessors.
	rd := as.NewReader()
	for round := 0; round < 2; round++ {
		for off := uint64(0); off < size; off += 4096 {
			for _, acc := range []topology.NodeID{0, 1} {
				if got := homeOf(rd, base+off, acc); got != 0 {
					t.Fatalf("bound page at +%#x homes on %d, want 0", off, got)
				}
			}
		}
	}
	if err := as.SetPolicy(base, BindTo(2)); err != nil {
		t.Fatal(err)
	}
	rd = as.NewReader()
	for off := uint64(0); off < size; off += 4096 {
		for _, acc := range []topology.NodeID{0, 1} {
			if got := homeOf(rd, base+off, acc); got != 2 {
				t.Errorf("page at +%#x still homes on %d after rebind to 2", off, got)
			}
		}
	}
	// Interleave: memoized answers must follow the round-robin layout.
	if err := as.SetPolicy(base, Policy{Kind: Interleave, Nodes: []topology.NodeID{1, 3}}); err != nil {
		t.Fatal(err)
	}
	rd = as.NewReader()
	set := []topology.NodeID{1, 3}
	for round := 0; round < 2; round++ {
		for pi := uint64(0); pi < 16; pi++ {
			want := set[pi%2]
			if got := homeOf(rd, base+pi*4096, 0); got != want {
				t.Errorf("interleaved page %d homes on %d, want %d", pi, got, want)
			}
		}
	}
}

func TestHomeForNotStaleAfterUnmapAndRemap(t *testing.T) {
	as := memoSpace(t)
	base := uint64(0x200000)
	if err := as.Map(base, 4*4096, BindTo(1), false); err != nil {
		t.Fatal(err)
	}
	if got := homeOf(as.NewReader(), base, 0); got != 1 {
		t.Fatalf("homes on %d, want 1", got)
	}
	if !as.Mapped(base) {
		t.Fatal("mapped address reported unmapped")
	}
	if err := as.Unmap(base); err != nil {
		t.Fatal(err)
	}
	if n, start, end := as.NewReader().Resolve(base, 0); n != topology.InvalidNode || start != 0 || end != 0 {
		t.Errorf("unmapped address resolves to (%d, %#x, %#x), want (InvalidNode, 0, 0)", n, start, end)
	}
	if as.Mapped(base) {
		t.Error("unmapped address reported mapped (stale region cache)")
	}
	// Remap the same range with a different placement.
	if err := as.Map(base, 4*4096, BindTo(3), false); err != nil {
		t.Fatal(err)
	}
	if got := homeOf(as.NewReader(), base, 0); got != 3 {
		t.Errorf("remapped page homes on %d, want 3", got)
	}
}

func TestHomeForNotStaleAfterTouch(t *testing.T) {
	as := memoSpace(t)
	base := uint64(0x300000)
	if err := as.Map(base, 4*4096, FirstTouchPolicy(), false); err != nil {
		t.Fatal(err)
	}
	// NodeOf and a Reader report the page untouched; those lookups must not
	// poison later resolution.
	if got := as.NodeOf(base); got != topology.InvalidNode {
		t.Fatalf("untouched page reports node %d", got)
	}
	if n, start, end := as.NewReader().Resolve(base, 0); n != topology.InvalidNode || start != base || end != base+4096 {
		t.Fatalf("untouched page resolves to (%d, %#x, %#x), want (InvalidNode, %#x, %#x)", n, start, end, base, base+4096)
	}
	// Touch from node 2, then query as node 0: first-touch placement wins.
	if got := as.Touch(base, 2); got != 2 {
		t.Fatalf("Touch returned %d, want 2", got)
	}
	if got := homeOf(as.NewReader(), base, 0); got != 2 {
		t.Errorf("first-touched page homes on %d, want 2", got)
	}
}

// TestFirstTouchOrderRace pins the first-touch semantics under interleaved
// accessors: whichever node touches an untouched page first owns it, and
// every later accessor sees that owner.
func TestFirstTouchOrderRace(t *testing.T) {
	as := memoSpace(t)
	base := uint64(0x400000)
	if err := as.Map(base, 8*4096, FirstTouchPolicy(), false); err != nil {
		t.Fatal(err)
	}
	// Node 1 touches even pages first, node 3 odd pages; then both read
	// everything.
	for pi := uint64(0); pi < 8; pi++ {
		first := topology.NodeID(1)
		if pi%2 == 1 {
			first = 3
		}
		if got := as.Touch(base+pi*4096, first); got != first {
			t.Fatalf("page %d first touch from %d homed on %d", pi, first, got)
		}
	}
	rd := as.NewReader()
	for pi := uint64(0); pi < 8; pi++ {
		want := topology.NodeID(1)
		if pi%2 == 1 {
			want = 3
		}
		for _, acc := range []topology.NodeID{0, 1, 2, 3} {
			if got := homeOf(rd, base+pi*4096, acc); got != want {
				t.Errorf("page %d read from node %d homes on %d, want %d (first-toucher)", pi, acc, got, want)
			}
		}
	}
	// The reverse order on a fresh region flips ownership — the touch
	// order, not the accessor identity, decides placement.
	base2 := uint64(0x500000)
	if err := as.Map(base2, 4096, FirstTouchPolicy(), false); err != nil {
		t.Fatal(err)
	}
	if got := as.Touch(base2, 3); got != 3 {
		t.Fatalf("fresh page first touch from 3 homed on %d", got)
	}
	if got := as.Touch(base2, 1); got != 3 {
		t.Errorf("second toucher sees %d, want 3", got)
	}
	if got := homeOf(as.NewReader(), base2, 1); got != 3 {
		t.Errorf("second accessor resolves to %d, want 3", got)
	}
}

// TestHomeForMemoAccessorKeyed checks replicated regions, where the same
// address legitimately homes differently per accessor: the memo must key on
// the accessor, not just the page.
func TestHomeForMemoAccessorKeyed(t *testing.T) {
	as := memoSpace(t)
	base := uint64(0x600000)
	if err := as.Map(base, 4096, Policy{Kind: Replicate, Nodes: []topology.NodeID{0, 2}}, false); err != nil {
		t.Fatal(err)
	}
	rd := as.NewReader()
	for i := 0; i < 3; i++ { // repeat so the later rounds hit the memo
		if got := homeOf(rd, base, 0); got != 0 {
			t.Errorf("replica reader on node 0 served by %d", got)
		}
		if got := homeOf(rd, base, 2); got != 2 {
			t.Errorf("replica reader on node 2 served by %d", got)
		}
		if got := homeOf(rd, base, 1); got != 0 {
			t.Errorf("non-replica reader on node 1 served by %d, want canonical 0", got)
		}
	}
}
