// Package topology models the hardware geometry of a NUMA machine: sockets
// (NUMA nodes), cores, hardware threads, memory controllers, and the directed
// interconnect channels between sockets.
//
// DR-BW reasons about bandwidth contention *per directed channel*: a sample
// issued by a core on node S that touches memory resident on node T travels
// the channel S→T (or the local memory controller when S == T). The paper
// stresses that inter-socket links are asymmetric — opposing directions of
// the same physical link can have different usable bandwidth (Lepers et al.,
// USENIX ATC'15) — so channels here are directed and individually sized.
//
// All times are expressed in CPU cycles and all bandwidths in bytes/cycle so
// the simulation is frequency-agnostic. The package provides presets that
// mirror the paper's evaluation platform (a 4-socket Intel Xeon E5-4650).
package topology

import (
	"fmt"
	"sort"
)

// NodeID identifies a NUMA node (socket). Nodes are numbered 0..N-1.
type NodeID int

// CPUID identifies a hardware thread (what the OS calls a "CPU").
type CPUID int

// CoreID identifies a physical core across the whole machine.
type CoreID int

// InvalidNode is returned by lookups that fail to resolve a node.
const InvalidNode NodeID = -1

// Channel names one directed memory path. Src == Dst denotes the local
// memory-controller path of that node; Src != Dst denotes the inter-socket
// interconnect from the accessing node to the node holding the data.
type Channel struct {
	Src NodeID
	Dst NodeID
}

// Local reports whether the channel is a node's local memory-controller path.
func (c Channel) Local() bool { return c.Src == c.Dst }

// String renders the channel as "N0->N1" or "N2(local)".
func (c Channel) String() string {
	if c.Local() {
		return fmt.Sprintf("N%d(local)", int(c.Src))
	}
	return fmt.Sprintf("N%d->N%d", int(c.Src), int(c.Dst))
}

// Core describes one physical core and its hardware threads.
type Core struct {
	ID   CoreID
	Node NodeID
	// CPUs lists the hardware-thread IDs of this core. With Hyper-Threading
	// there are two entries; without, one.
	CPUs []CPUID
}

// Link holds the usable bandwidth of one directed channel.
type Link struct {
	Channel Channel
	// Bandwidth is the peak usable bandwidth in bytes per CPU cycle.
	Bandwidth float64
}

// Latencies groups the unloaded (zero-queueing) access latencies of the
// memory hierarchy, in cycles. The engine inflates DRAM latencies under load.
type Latencies struct {
	L1        float64 // L1D hit
	L2        float64 // L2 hit
	L3        float64 // L3 (LLC) hit
	LFB       float64 // hit in a line fill buffer (miss already outstanding)
	LocalDRAM float64 // local-node DRAM, unloaded
	// RemoteDRAM is the unloaded latency for a one-hop remote access.
	RemoteDRAM float64
}

// Machine is an immutable description of one NUMA machine.
type Machine struct {
	name      string
	nodes     int
	cores     []Core
	cpuToCore []CoreID
	cpuToNode []NodeID
	links     map[Channel]Link
	bwTable   []float64 // dense bandwidth indexed by ChannelIndex
	lat       Latencies
	lineSize  int
	pageSize  int
	hugePage  int
}

// Machine size limits enforced by New. MaxNodes is set by the engine, which
// packs a sampled access's home node into 8 bits; MaxCPUs bounds the
// per-core cache state a simulation of the machine allocates (at the
// default geometry, about 36 KiB of L1/L2 tags per core).
const (
	MaxNodes = 256
	MaxCPUs  = 4096
)

// Config describes a machine to be built by New.
type Config struct {
	Name           string
	Nodes          int     // number of sockets / NUMA nodes
	CoresPerNode   int     // physical cores per socket
	ThreadsPerCore int     // 1, or 2 with Hyper-Threading
	LocalBW        float64 // local memory-controller bandwidth, bytes/cycle
	RemoteBW       float64 // default inter-socket bandwidth, bytes/cycle
	// RemoteBWOverride optionally sets per-channel asymmetric bandwidths.
	RemoteBWOverride map[Channel]float64
	Latencies        Latencies
	LineSize         int // cache-line size in bytes
	PageSize         int // small-page size in bytes
	HugePageSize     int // huge-page size in bytes
}

// New validates cfg and builds the Machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 || cfg.Nodes > MaxNodes {
		return nil, fmt.Errorf("topology: Nodes must be in [1, %d], got %d", MaxNodes, cfg.Nodes)
	}
	if cfg.CoresPerNode <= 0 {
		return nil, fmt.Errorf("topology: CoresPerNode must be positive, got %d", cfg.CoresPerNode)
	}
	if cfg.ThreadsPerCore != 1 && cfg.ThreadsPerCore != 2 {
		return nil, fmt.Errorf("topology: ThreadsPerCore must be 1 or 2, got %d", cfg.ThreadsPerCore)
	}
	// CoresPerNode is bounded first so the product cannot overflow.
	if cfg.CoresPerNode > MaxCPUs || cfg.Nodes*cfg.CoresPerNode*cfg.ThreadsPerCore > MaxCPUs {
		return nil, fmt.Errorf("topology: %d nodes x %d cores x %d threads exceed the %d hardware-thread limit",
			cfg.Nodes, cfg.CoresPerNode, cfg.ThreadsPerCore, MaxCPUs)
	}
	if cfg.LocalBW <= 0 || cfg.RemoteBW <= 0 {
		return nil, fmt.Errorf("topology: bandwidths must be positive (local %g, remote %g)", cfg.LocalBW, cfg.RemoteBW)
	}
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		return nil, fmt.Errorf("topology: LineSize must be a positive power of two, got %d", cfg.LineSize)
	}
	if cfg.PageSize <= 0 || cfg.PageSize%cfg.LineSize != 0 {
		return nil, fmt.Errorf("topology: PageSize %d must be a positive multiple of LineSize %d", cfg.PageSize, cfg.LineSize)
	}
	if cfg.HugePageSize <= 0 || cfg.HugePageSize%cfg.PageSize != 0 {
		return nil, fmt.Errorf("topology: HugePageSize %d must be a positive multiple of PageSize %d", cfg.HugePageSize, cfg.PageSize)
	}
	lat := cfg.Latencies
	if lat.L1 <= 0 || lat.L2 < lat.L1 || lat.L3 < lat.L2 || lat.LocalDRAM < lat.L3 || lat.RemoteDRAM < lat.LocalDRAM {
		return nil, fmt.Errorf("topology: latencies must be positive and monotone L1<=L2<=L3<=LocalDRAM<=RemoteDRAM, got %+v", lat)
	}
	if lat.LFB <= 0 {
		lat.LFB = (lat.L3 + lat.LocalDRAM) / 2
	}

	m := &Machine{
		name:     cfg.Name,
		nodes:    cfg.Nodes,
		lat:      lat,
		lineSize: cfg.LineSize,
		pageSize: cfg.PageSize,
		hugePage: cfg.HugePageSize,
		links:    make(map[Channel]Link),
	}

	totalCPUs := cfg.Nodes * cfg.CoresPerNode * cfg.ThreadsPerCore
	m.cpuToCore = make([]CoreID, totalCPUs)
	m.cpuToNode = make([]NodeID, totalCPUs)

	// CPU numbering follows the common Linux layout on multi-socket Xeons:
	// the first pass over all physical cores takes CPUs 0..C-1, and the
	// Hyper-Thread siblings take C..2C-1.
	physCores := cfg.Nodes * cfg.CoresPerNode
	m.cores = make([]Core, physCores)
	for c := 0; c < physCores; c++ {
		node := NodeID(c / cfg.CoresPerNode)
		core := Core{ID: CoreID(c), Node: node, CPUs: []CPUID{CPUID(c)}}
		if cfg.ThreadsPerCore == 2 {
			core.CPUs = append(core.CPUs, CPUID(c+physCores))
		}
		m.cores[c] = core
		for _, cpu := range core.CPUs {
			m.cpuToCore[cpu] = core.ID
			m.cpuToNode[cpu] = node
		}
	}

	for s := 0; s < cfg.Nodes; s++ {
		for d := 0; d < cfg.Nodes; d++ {
			ch := Channel{Src: NodeID(s), Dst: NodeID(d)}
			bw := cfg.RemoteBW
			if s == d {
				bw = cfg.LocalBW
			}
			if override, ok := cfg.RemoteBWOverride[ch]; ok {
				if override <= 0 {
					return nil, fmt.Errorf("topology: override bandwidth for %v must be positive, got %g", ch, override)
				}
				bw = override
			}
			m.links[ch] = Link{Channel: ch, Bandwidth: bw}
		}
	}
	m.bwTable = make([]float64, cfg.Nodes*cfg.Nodes)
	for ch, l := range m.links {
		m.bwTable[m.ChannelIndex(ch)] = l.Bandwidth
	}
	return m, nil
}

// Name returns the machine's descriptive name.
func (m *Machine) Name() string { return m.name }

// Nodes returns the number of NUMA nodes.
func (m *Machine) Nodes() int { return m.nodes }

// NumCPUs returns the total number of hardware threads.
func (m *Machine) NumCPUs() int { return len(m.cpuToNode) }

// NumCores returns the total number of physical cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// NodeOfCPU maps a hardware thread to its NUMA node, or InvalidNode if the
// CPU ID is out of range. This is the lookup DR-BW performs on the CPU ID
// recorded in each PEBS sample to find the sample's source node.
func (m *Machine) NodeOfCPU(cpu CPUID) NodeID {
	if cpu < 0 || int(cpu) >= len(m.cpuToNode) {
		return InvalidNode
	}
	return m.cpuToNode[cpu]
}

// CoreOfCPU maps a hardware thread to its physical core, or -1.
func (m *Machine) CoreOfCPU(cpu CPUID) CoreID {
	if cpu < 0 || int(cpu) >= len(m.cpuToCore) {
		return -1
	}
	return m.cpuToCore[cpu]
}

// CPUsOfNode returns the hardware threads of one node in ascending order.
func (m *Machine) CPUsOfNode(node NodeID) []CPUID {
	var out []CPUID
	for cpu, n := range m.cpuToNode {
		if n == node {
			out = append(out, CPUID(cpu))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Link returns the directed link description for ch.
func (m *Machine) Link(ch Channel) (Link, bool) {
	l, ok := m.links[ch]
	return l, ok
}

// Bandwidth returns the usable bandwidth of ch in bytes/cycle, or 0 if the
// channel does not exist on this machine.
func (m *Machine) Bandwidth(ch Channel) float64 {
	return m.links[ch].Bandwidth
}

// NumChannels returns the number of directed channels (Nodes², counting each
// node's local memory-controller path). Dense per-channel state in hot loops
// is sized by this and indexed by ChannelIndex.
func (m *Machine) NumChannels() int { return m.nodes * m.nodes }

// ChannelIndex maps a directed channel to its dense index src*Nodes+dst, the
// layout every flat per-channel table in the simulator shares.
func (m *Machine) ChannelIndex(ch Channel) int {
	return int(ch.Src)*m.nodes + int(ch.Dst)
}

// ChannelAt is the inverse of ChannelIndex.
func (m *Machine) ChannelAt(ci int) Channel {
	return Channel{Src: NodeID(ci / m.nodes), Dst: NodeID(ci % m.nodes)}
}

// BandwidthTable returns a copy of the dense bandwidth table indexed by
// ChannelIndex, in bytes/cycle. Hot loops fetch this once and index it
// instead of paying the map lookup of Bandwidth per access.
func (m *Machine) BandwidthTable() []float64 {
	out := make([]float64, len(m.bwTable))
	copy(out, m.bwTable)
	return out
}

// CPUNodeTable returns a copy of the flat CPU→node table (indexed by CPUID).
// Hot loops resolve topology once through this instead of calling NodeOfCPU
// per access.
func (m *Machine) CPUNodeTable() []NodeID {
	out := make([]NodeID, len(m.cpuToNode))
	copy(out, m.cpuToNode)
	return out
}

// CPUCoreTable returns a copy of the flat CPU→core table (indexed by CPUID).
func (m *Machine) CPUCoreTable() []CoreID {
	out := make([]CoreID, len(m.cpuToCore))
	copy(out, m.cpuToCore)
	return out
}

// Channels enumerates every directed channel (including each node's local
// path) in deterministic order: by source node, then destination node.
func (m *Machine) Channels() []Channel {
	out := make([]Channel, 0, m.nodes*m.nodes)
	for s := 0; s < m.nodes; s++ {
		for d := 0; d < m.nodes; d++ {
			out = append(out, Channel{Src: NodeID(s), Dst: NodeID(d)})
		}
	}
	return out
}

// RemoteChannels enumerates the inter-socket channels only.
func (m *Machine) RemoteChannels() []Channel {
	out := make([]Channel, 0, m.nodes*(m.nodes-1))
	for _, ch := range m.Channels() {
		if !ch.Local() {
			out = append(out, ch)
		}
	}
	return out
}

// Latencies returns the unloaded hierarchy latencies.
func (m *Machine) Latencies() Latencies { return m.lat }

// LineSize returns the cache-line size in bytes.
func (m *Machine) LineSize() int { return m.lineSize }

// PageSize returns the small-page size in bytes.
func (m *Machine) PageSize() int { return m.pageSize }

// HugePageSize returns the huge-page size in bytes.
func (m *Machine) HugePageSize() int { return m.hugePage }
