// Package pebs models precise event-based address sampling — the hardware
// mechanism DR-BW's profiler is built on (Intel PEBS with latency
// extensions; AMD IBS and IBM MRK are equivalent).
//
// The simulated PMU samples one of every Period memory accesses
// independently in each thread (the paper uses 1/2000 with the event
// MEM_TRANS_RETIRED:LATENCY_ABOVE_THRESHOLD). Each sample carries exactly
// the fields the real extension reports and DR-BW consumes:
//
//   - the effective address of the load/store,
//   - the memory layer that served it (L1/L2/L3/LFB/DRAM),
//   - the access latency in core cycles,
//   - the CPU (hardware thread) that executed the instruction.
//
// Load latency and time are whole numbers of cycles, as the hardware
// reports them (a latency count and a TSC value): Collector.Add rounds both
// once, and Check is the rule every reader and writer of recorded samples
// applies.
//
// The source NUMA node of a sample is derived from the CPU via the machine
// topology; the home node of the data is derived from the address via the
// simulated page tables (the libnuma query). Those two nodes name the
// sample's directed channel (Sample.Channel), which is DR-BW's per-channel
// detection granularity.
package pebs

import (
	"fmt"
	"math"
	"math/rand"

	"drbw/internal/cache"
	"drbw/internal/memsim"
	"drbw/internal/topology"
)

// DefaultPeriod is the paper's sampling period: one in 2000 accesses.
const DefaultPeriod = 2000

// DefaultLatencyThreshold mirrors the PEBS latency-above-threshold setting:
// loads faster than this many cycles are not eligible for sampling. Three
// cycles keeps every L1 hit visible, as the paper's feature set requires.
const DefaultLatencyThreshold = 3

// Sample is one address sample.
type Sample struct {
	Time    float64 // whole cycles since run start
	CPU     topology.CPUID
	Thread  int
	Addr    uint64
	Level   cache.Level // memory layer that served the access
	Latency float64     // whole cycles
	Write   bool
	// SrcNode is the NUMA node of the issuing CPU; HomeNode the node holding
	// the data. Both are resolved by the profiler, not reported by hardware.
	SrcNode  topology.NodeID
	HomeNode topology.NodeID
}

// MaxTime and MaxLatency bound a sample's whole-cycle fields: Time lies in
// [0, MaxTime], where a float64 still holds every whole number, and Latency
// in [0, MaxLatency], the range of a 32-bit latency counter.
const (
	MaxTime    = 1 << 53
	MaxLatency = 1<<32 - 1
)

// Check returns an error, naming the field and its value, unless s.Time
// and s.Latency are whole cycle counts within MaxTime and MaxLatency.
func Check(s *Sample) error {
	if !wholeUpTo(s.Time, MaxTime) {
		return fmt.Errorf("time %v is not a whole cycle count in [0, 2^53]", s.Time)
	}
	if !wholeUpTo(s.Latency, MaxLatency) {
		return fmt.Errorf("latency %v is not a whole cycle count in [0, 2^32)", s.Latency)
	}
	return nil
}

// wholeUpTo reports whether v is a whole number in [0, max]; NaN is not.
func wholeUpTo(v, max float64) bool {
	return v >= 0 && v <= max && v == math.Trunc(v)
}

// Channel returns the directed channel this sample travelled.
func (s Sample) Channel() topology.Channel {
	return topology.Channel{Src: s.SrcNode, Dst: s.HomeNode}
}

// RemoteDRAM reports whether the sample was served by another socket's DRAM.
func (s Sample) RemoteDRAM() bool {
	return s.Level == cache.MEM && s.SrcNode != s.HomeNode
}

// LocalDRAM reports whether the sample was served by the local DRAM.
func (s Sample) LocalDRAM() bool {
	return s.Level == cache.MEM && s.SrcNode == s.HomeNode
}

// Flavor selects the sampling hardware being modeled.
type Flavor int

// Sampling flavors.
const (
	// PEBS models Intel precise event-based sampling with the latency
	// extension: the PMU counts *memory accesses* and tags every Period-th
	// one with its address, data source and access latency.
	PEBS Flavor = iota
	// IBS models AMD instruction-based sampling for micro-ops (IBS op,
	// Drongowski 2007): the PMU counts *micro-ops*, memory or not. The
	// expected number of memory samples per memory access is the same as
	// PEBS at equal period, but two observable differences follow:
	// compute-heavy code burns sampling interrupts on non-memory ops (the
	// profiling overhead scales with total micro-ops, not accesses), and
	// the tagged-load timing is noisier than PEBS's dedicated latency
	// counter.
	IBS
)

// String names the flavor.
func (f Flavor) String() string {
	if f == IBS {
		return "IBS"
	}
	return "PEBS"
}

// Config controls the sampler.
type Config struct {
	// Flavor selects PEBS (default) or IBS sampling semantics.
	Flavor Flavor
	// Period samples one in Period accesses per thread. <= 0 uses
	// DefaultPeriod.
	Period int
	// LatencyThreshold drops samples whose latency is below the threshold,
	// like the PEBS event's programmable threshold. <= 0 uses
	// DefaultLatencyThreshold.
	LatencyThreshold float64
	// MaxKept bounds memory: once more than MaxKept samples have been
	// collected, reservoir sampling keeps a uniform subset. <= 0 means
	// keep everything.
	MaxKept int
	// OverheadCycles is the profiling cost charged to the sampled thread per
	// recorded sample (PEBS micro-assist plus buffer drain, amortized).
	OverheadCycles float64
}

// reserveCeiling caps a reservation when MaxKept does not bound the
// buffer: 2^18 samples, about 18 MiB. Reservations are sized from workload
// specs, which are untrusted, so a hostile Ops count must not turn into an
// allocation; samples past the ceiling still land, by append.
const reserveCeiling = 1 << 18

// Collector accumulates samples during a run.
type Collector struct {
	cfg     Config
	samples []Sample
	total   int
	// droppedThreshold counts samples rejected by the latency threshold;
	// with total and len(samples) it gives the full kept/dropped breakdown
	// the observability layer reports (Stats).
	droppedThreshold int
	rng              *rand.Rand
}

// NewCollector returns a collector with cfg (zero fields defaulted).
func NewCollector(cfg Config, seed uint64) *Collector {
	if cfg.Period <= 0 {
		cfg.Period = DefaultPeriod
	}
	if cfg.LatencyThreshold <= 0 {
		cfg.LatencyThreshold = DefaultLatencyThreshold
	}
	if cfg.OverheadCycles < 0 {
		cfg.OverheadCycles = 0
	}
	return &Collector{cfg: cfg, rng: rand.New(rand.NewSource(int64(seed) ^ 0x7f4a7c15))}
}

// Config returns the effective configuration.
func (c *Collector) Config() Config { return c.cfg }

// Flavor returns the modeled sampling hardware.
func (c *Collector) Flavor() Flavor { return c.cfg.Flavor }

// Period returns the sampling period in accesses.
func (c *Collector) Period() int { return c.cfg.Period }

// OverheadCycles returns the per-sample profiling cost.
func (c *Collector) OverheadCycles() float64 { return c.cfg.OverheadCycles }

// Add records one sample, applying the latency threshold and the reservoir
// bound. A kept sample's time and latency are rounded to whole cycles; the
// threshold sees the latency before rounding.
func (c *Collector) Add(s Sample) {
	if s.Latency < c.cfg.LatencyThreshold {
		c.droppedThreshold++
		return
	}
	s.Time, s.Latency = math.Round(s.Time), math.Round(s.Latency)
	c.total++
	if c.cfg.MaxKept <= 0 || len(c.samples) < c.cfg.MaxKept {
		c.samples = append(c.samples, s)
		return
	}
	// Uniform reservoir replacement.
	if j := c.rng.Intn(c.total); j < c.cfg.MaxKept {
		c.samples[j] = s
	}
}

// Reserve makes room for n more samples, so that Add does not regrow the
// buffer while they arrive. The buffer never grows past the kept bound:
// MaxKept when set, reserveCeiling otherwise.
func (c *Collector) Reserve(n int) {
	limit := c.cfg.MaxKept
	if limit <= 0 {
		limit = reserveCeiling
	}
	have := len(c.samples)
	if n <= 0 || have >= limit {
		return
	}
	want := limit
	if n < limit-have {
		want = have + n
	}
	if want <= cap(c.samples) {
		return
	}
	buf := make([]Sample, have, want)
	copy(buf, c.samples)
	c.samples = buf
}

// Cap returns how many samples the buffer holds before Add must regrow it.
func (c *Collector) Cap() int { return cap(c.samples) }

// Samples returns the kept samples in emission order; a reservoir
// replacement takes the slot of the sample it evicts. The slice shares the
// collector's storage and stays valid until the next Add or Reset. Every
// consumer of a profiled run is order-independent; the one that needs time
// order, a recording, sorts the slice itself.
func (c *Collector) Samples() []Sample {
	return c.samples[:len(c.samples):len(c.samples)]
}

// Total returns how many samples passed the threshold, including any that
// the reservoir later evicted.
func (c *Collector) Total() int { return c.total }

// Weight is the scale factor from kept samples to true sample counts
// (Total/kept); count-valued features multiply by it.
func (c *Collector) Weight() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return float64(c.total) / float64(len(c.samples))
}

// Reset discards all collected samples.
func (c *Collector) Reset() {
	c.samples = c.samples[:0]
	c.total = 0
	c.droppedThreshold = 0
}

// Stats is the collector's kept/dropped accounting, reported per run by
// the observability layer: sampler trustworthiness at scale requires the
// drop rates to be continuously visible.
type Stats struct {
	// Kept is the number of samples currently retained.
	Kept int
	// DroppedThreshold counts samples rejected by the latency threshold.
	DroppedThreshold int
	// Evicted counts samples that passed the threshold but were displaced
	// by the reservoir bound (Total - Kept).
	Evicted int
	// Total is every sample that passed the threshold, evicted or not.
	Total int
	// Weight is the kept→true scale factor (Total/Kept).
	Weight float64
}

// Stats returns the collector's current accounting.
func (c *Collector) Stats() Stats {
	return Stats{
		Kept:             len(c.samples),
		DroppedThreshold: c.droppedThreshold,
		Evicted:          c.total - len(c.samples),
		Total:            c.total,
		Weight:           c.Weight(),
	}
}

// Resolve fills SrcNode and HomeNode on a raw hardware sample the way the
// profiler does: CPU → node via the topology, address → node via the
// simulated page table (libnuma). Samples served by a cache level still
// resolve their home node — DR-BW needs it to place LFB traffic on a
// channel.
func Resolve(s *Sample, m *topology.Machine, as *memsim.AddressSpace) {
	s.SrcNode = m.NodeOfCPU(s.CPU)
	s.HomeNode = as.NodeOf(s.Addr)
	if s.HomeNode == topology.InvalidNode {
		// Page not resident anywhere the page table can see (e.g. stack or
		// never-touched page): treat as local, the kernel's fallback.
		s.HomeNode = s.SrcNode
	}
}
