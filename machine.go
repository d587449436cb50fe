package drbw

import (
	"encoding/json"
	"fmt"
	"os"

	"drbw/internal/topology"
)

// MachineSpec describes a custom NUMA machine for TrainOn. It mirrors what
// `lscpu`, `numactl --hardware` and vendor datasheets provide; bandwidths
// are bytes per CPU cycle (GB/s divided by core GHz) and latencies are
// core cycles.
type MachineSpec struct {
	Name           string  `json:"name"`
	Nodes          int     `json:"nodes"`
	CoresPerNode   int     `json:"cores_per_node"`
	ThreadsPerCore int     `json:"threads_per_core"` // 1 or 2
	LocalBW        float64 `json:"local_bw"`         // memory controller, bytes/cycle
	RemoteBW       float64 `json:"remote_bw"`        // default inter-socket link, bytes/cycle
	// LinkOverrides sets asymmetric per-direction link bandwidths, keyed
	// "src->dst" (e.g. "1->0").
	LinkOverrides map[string]float64 `json:"link_overrides,omitempty"`
	// Latencies in cycles; zero fields take E5-4650-like defaults.
	L1Latency         float64 `json:"l1_latency,omitempty"`
	L2Latency         float64 `json:"l2_latency,omitempty"`
	L3Latency         float64 `json:"l3_latency,omitempty"`
	LFBLatency        float64 `json:"lfb_latency,omitempty"`
	LocalDRAMLatency  float64 `json:"local_dram_latency,omitempty"`
	RemoteDRAMLatency float64 `json:"remote_dram_latency,omitempty"`
}

func (s MachineSpec) build() (*topology.Machine, error) {
	lat := topology.Latencies{
		L1: s.L1Latency, L2: s.L2Latency, L3: s.L3Latency, LFB: s.LFBLatency,
		LocalDRAM: s.LocalDRAMLatency, RemoteDRAM: s.RemoteDRAMLatency,
	}
	if lat.L1 == 0 {
		lat.L1 = 4
	}
	if lat.L2 == 0 {
		lat.L2 = 12
	}
	if lat.L3 == 0 {
		lat.L3 = 38
	}
	if lat.LFB == 0 {
		lat.LFB = 120
	}
	if lat.LocalDRAM == 0 {
		lat.LocalDRAM = 230
	}
	if lat.RemoteDRAM == 0 {
		lat.RemoteDRAM = 360
	}
	overrides := map[topology.Channel]float64{}
	for key, bw := range s.LinkOverrides {
		var src, dst int
		if _, err := fmt.Sscanf(key, "%d->%d", &src, &dst); err != nil {
			return nil, fmt.Errorf("drbw: link override key %q, want \"src->dst\"", key)
		}
		overrides[topology.Channel{Src: topology.NodeID(src), Dst: topology.NodeID(dst)}] = bw
	}
	threadsPerCore := s.ThreadsPerCore
	if threadsPerCore == 0 {
		threadsPerCore = 1
	}
	name := s.Name
	if name == "" {
		name = fmt.Sprintf("custom %d-node machine", s.Nodes)
	}
	return topology.New(topology.Config{
		Name:             name,
		Nodes:            s.Nodes,
		CoresPerNode:     s.CoresPerNode,
		ThreadsPerCore:   threadsPerCore,
		LocalBW:          s.LocalBW,
		RemoteBW:         s.RemoteBW,
		RemoteBWOverride: overrides,
		Latencies:        lat,
		LineSize:         64,
		PageSize:         4096,
		HugePageSize:     2 << 20,
	})
}

// LoadMachineSpec reads a MachineSpec from a JSON file.
func LoadMachineSpec(path string) (MachineSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return MachineSpec{}, fmt.Errorf("drbw: %w", err)
	}
	var s MachineSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return MachineSpec{}, fmt.Errorf("drbw: parsing machine spec %s: %w", path, err)
	}
	return s, nil
}

// TrainOn is Train for a custom machine described by spec: the training
// micro benchmarks run on that machine, so the learned thresholds reflect
// its link bandwidths and latencies. Training configurations that exceed
// the machine's thread count are skipped (a 2-node machine cannot run
// T64-N4), so small machines train on fewer runs.
func TrainOn(spec MachineSpec, cfg Config) (*Tool, error) {
	m, err := spec.build()
	if err != nil {
		return nil, err
	}
	return trainOnMachine(m, cfg)
}
