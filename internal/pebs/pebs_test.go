package pebs

import (
	"math"
	"testing"
	"testing/quick"

	"drbw/internal/cache"
	"drbw/internal/memsim"
	"drbw/internal/topology"
)

func sample(lat float64, lvl cache.Level, src, home topology.NodeID) Sample {
	return Sample{Latency: lat, Level: lvl, SrcNode: src, HomeNode: home}
}

func TestCollectorDefaults(t *testing.T) {
	c := NewCollector(Config{}, 1)
	if c.Period() != DefaultPeriod {
		t.Errorf("period = %d", c.Period())
	}
	if c.Config().LatencyThreshold != DefaultLatencyThreshold {
		t.Errorf("threshold = %g", c.Config().LatencyThreshold)
	}
	if c.OverheadCycles() != 0 {
		t.Errorf("default overhead = %g", c.OverheadCycles())
	}
}

func TestLatencyThresholdFilters(t *testing.T) {
	c := NewCollector(Config{LatencyThreshold: 50}, 1)
	c.Add(sample(49, cache.L1, 0, 0))
	c.Add(sample(50, cache.L3, 0, 0))
	c.Add(sample(400, cache.MEM, 0, 1))
	if c.Total() != 2 || len(c.Samples()) != 2 {
		t.Fatalf("total %d kept %d, want 2/2", c.Total(), len(c.Samples()))
	}
}

func TestReservoirBound(t *testing.T) {
	c := NewCollector(Config{MaxKept: 100, LatencyThreshold: 1}, 3)
	for i := 0; i < 1000; i++ {
		c.Add(sample(float64(10+i), cache.MEM, 0, 1))
	}
	if c.Total() != 1000 {
		t.Errorf("total = %d", c.Total())
	}
	if len(c.Samples()) != 100 {
		t.Errorf("kept = %d, want 100", len(c.Samples()))
	}
	if w := c.Weight(); w != 10 {
		t.Errorf("weight = %g, want 10", w)
	}
}

func TestWeightWithoutEviction(t *testing.T) {
	c := NewCollector(Config{}, 1)
	if c.Weight() != 1 {
		t.Errorf("empty collector weight = %g", c.Weight())
	}
	c.Add(sample(100, cache.MEM, 0, 0))
	if c.Weight() != 1 {
		t.Errorf("unevicted weight = %g", c.Weight())
	}
}

func TestSamplesInEmissionOrder(t *testing.T) {
	c := NewCollector(Config{}, 1)
	times := []float64{30, 10, 20}
	for _, tm := range times {
		s := sample(100, cache.MEM, 0, 0)
		s.Time = tm
		c.Add(s)
	}
	got := c.Samples()
	if len(got) != len(times) {
		t.Fatalf("kept %d samples, want %d", len(got), len(times))
	}
	for i, s := range got {
		if s.Time != times[i] {
			t.Fatalf("sample %d at time %g, want %g: Samples must keep emission order", i, s.Time, times[i])
		}
	}
}

func TestAddDoesNotAllocateAfterReserve(t *testing.T) {
	for _, maxKept := range []int{0, 50} {
		c := NewCollector(Config{MaxKept: maxKept}, 1)
		c.Reserve(200)
		s := sample(100, cache.MEM, 0, 1)
		if allocs := testing.AllocsPerRun(150, func() { c.Add(s) }); allocs != 0 {
			t.Errorf("MaxKept %d: Add allocates %g times per call after Reserve", maxKept, allocs)
		}
	}
}

func TestReserveCapped(t *testing.T) {
	c := NewCollector(Config{}, 1)
	c.Reserve(math.MaxInt)
	if c.Cap() != reserveCeiling {
		t.Errorf("unbounded collector reserved %d samples, want the %d ceiling", c.Cap(), reserveCeiling)
	}
	k := NewCollector(Config{MaxKept: 100}, 1)
	k.Reserve(math.MaxInt)
	if k.Cap() != 100 {
		t.Errorf("MaxKept 100 collector reserved %d samples", k.Cap())
	}
	// A reservation adds to the samples already kept and keeps them.
	r := NewCollector(Config{}, 1)
	r.Add(sample(100, cache.MEM, 0, 1))
	r.Reserve(10)
	if r.Cap() != 11 || len(r.Samples()) != 1 || r.Samples()[0].Latency != 100 {
		t.Errorf("reserve after one sample: cap %d, samples %v", r.Cap(), r.Samples())
	}
}

func TestReset(t *testing.T) {
	c := NewCollector(Config{}, 1)
	c.Add(sample(100, cache.MEM, 0, 0))
	c.Reset()
	if c.Total() != 0 || len(c.Samples()) != 0 {
		t.Error("reset did not clear collector")
	}
}

func TestSampleClassification(t *testing.T) {
	s := sample(300, cache.MEM, 1, 0)
	if !s.RemoteDRAM() || s.LocalDRAM() {
		t.Error("cross-node MEM sample should be remote DRAM")
	}
	if got := s.Channel(); got != (topology.Channel{Src: 1, Dst: 0}) {
		t.Errorf("channel = %v", got)
	}
	l := sample(200, cache.MEM, 2, 2)
	if l.RemoteDRAM() || !l.LocalDRAM() {
		t.Error("same-node MEM sample should be local DRAM")
	}
	lfb := sample(150, cache.LFB, 1, 0)
	if lfb.RemoteDRAM() || lfb.LocalDRAM() {
		t.Error("LFB sample is neither local nor remote DRAM")
	}
}

func TestResolve(t *testing.T) {
	m := topology.Uniform(4, 2)
	as := memsim.NewAddressSpace(m)
	if err := as.Map(0x100000, 4096, memsim.BindTo(3), false); err != nil {
		t.Fatal(err)
	}
	s := Sample{CPU: 2, Addr: 0x100000} // CPU 2 is on node 1 (2 cores/node)
	Resolve(&s, m, as)
	if s.SrcNode != 1 {
		t.Errorf("src = %d, want 1", s.SrcNode)
	}
	if s.HomeNode != 3 {
		t.Errorf("home = %d, want 3", s.HomeNode)
	}
	// Unmapped address falls back to local.
	u := Sample{CPU: 2, Addr: 0xdead0000}
	Resolve(&u, m, as)
	if u.HomeNode != u.SrcNode {
		t.Errorf("unmapped home = %d, want src %d", u.HomeNode, u.SrcNode)
	}
}

// Property: the reservoir keeps exactly min(total, MaxKept) samples and
// Weight()*kept ≈ Total.
func TestReservoirInvariantProperty(t *testing.T) {
	f := func(n uint16, keep uint8) bool {
		k := int(keep%50) + 1
		c := NewCollector(Config{MaxKept: k, LatencyThreshold: 1}, uint64(n))
		total := int(n % 500)
		for i := 0; i < total; i++ {
			c.Add(sample(100, cache.MEM, 0, 0))
		}
		want := total
		if want > k {
			want = k
		}
		if len(c.Samples()) != want || c.Total() != total {
			return false
		}
		if total > 0 && len(c.Samples()) > 0 {
			got := c.Weight() * float64(len(c.Samples()))
			if diff := got - float64(total); diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFlavorNames(t *testing.T) {
	if PEBS.String() != "PEBS" || IBS.String() != "IBS" {
		t.Error("flavor names wrong")
	}
	c := NewCollector(Config{}, 1)
	if c.Flavor() != PEBS {
		t.Error("default flavor should be PEBS")
	}
	c2 := NewCollector(Config{Flavor: IBS}, 1)
	if c2.Flavor() != IBS {
		t.Error("IBS flavor lost")
	}
}
