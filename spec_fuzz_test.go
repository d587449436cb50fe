package drbw

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"drbw/internal/features"
	"drbw/internal/topology"
)

// TestHostileSpecsRejected pins the size limits on machine and workload
// specs: each hostile spec must fail with a descriptive error before
// anything is allocated for it.
func TestHostileSpecsRejected(t *testing.T) {
	machines := []struct {
		name string
		spec MachineSpec
		want string
	}{
		{"nodes over the 8-bit home field", MachineSpec{Nodes: topology.MaxNodes + 1, CoresPerNode: 1, LocalBW: 1, RemoteBW: 1}, "Nodes must be in"},
		{"huge node count", MachineSpec{Nodes: 1 << 40, CoresPerNode: 1, LocalBW: 1, RemoteBW: 1}, "Nodes must be in"},
		{"too many hardware threads", MachineSpec{Nodes: 64, CoresPerNode: 64, ThreadsPerCore: 2, LocalBW: 1, RemoteBW: 1}, "hardware-thread limit"},
		{"cores that overflow the product", MachineSpec{Nodes: 4, CoresPerNode: 1 << 62, LocalBW: 1, RemoteBW: 1}, "hardware-thread limit"},
		{"negative cores", MachineSpec{Nodes: 2, CoresPerNode: -1, LocalBW: 1, RemoteBW: 1}, "CoresPerNode must be positive"},
	}
	for _, tc := range machines {
		t.Run("machine/"+tc.name, func(t *testing.T) {
			_, err := tc.spec.build()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("build() error = %v, want one containing %q", err, tc.want)
			}
		})
	}
	// The limits themselves are accepted.
	if _, err := (MachineSpec{Nodes: topology.MaxNodes, CoresPerNode: topology.MaxCPUs / topology.MaxNodes, LocalBW: 1, RemoteBW: 1}).build(); err != nil {
		t.Errorf("machine at the limits rejected: %v", err)
	}

	workloads := []struct {
		name string
		spec WorkloadSpec
	}{
		{"one array over the cap", WorkloadSpec{Arrays: []ArraySpec{{Name: "a", MB: maxWorkloadMiB + 1}}}},
		{"shift-overflowing size", WorkloadSpec{Arrays: []ArraySpec{{Name: "a", MB: 1 << 44}}}},
		{"arrays summing over the cap", WorkloadSpec{Arrays: []ArraySpec{{Name: "a", MB: maxWorkloadMiB / 2}, {Name: "b", MB: maxWorkloadMiB/2 + 1}}}},
		{"arrays whose sum would overflow", WorkloadSpec{Arrays: []ArraySpec{{Name: "a", MB: maxWorkloadMiB}, {Name: "b", MB: 1<<63 - 1}}}},
	}
	for _, tc := range workloads {
		t.Run("workload/"+tc.name, func(t *testing.T) {
			_, err := tc.spec.builder()
			if err == nil || !strings.Contains(err.Error(), "MiB limit") {
				t.Fatalf("builder() error = %v, want the MiB limit", err)
			}
		})
	}
	if _, err := (WorkloadSpec{Arrays: []ArraySpec{{Name: "a", MB: maxWorkloadMiB}}}).builder(); err != nil {
		t.Errorf("workload at the cap rejected: %v", err)
	}
}

// FuzzMachineSpec decodes arbitrary JSON as a MachineSpec and builds it.
// Build must error or succeed without panicking, and an accepted machine
// must respect the topology limits.
func FuzzMachineSpec(f *testing.F) {
	f.Add(`{"nodes": 2, "cores_per_node": 16, "local_bw": 20, "remote_bw": 6, "link_overrides": {"1->0": 5}}`)
	f.Add(`{"nodes": 4, "cores_per_node": 8, "threads_per_core": 2, "local_bw": 10, "remote_bw": 3, "local_dram_latency": 200, "remote_dram_latency": 330}`)
	f.Add(`{"nodes": 257, "cores_per_node": 1, "local_bw": 1, "remote_bw": 1}`)
	f.Add(`{"nodes": 4, "cores_per_node": 4611686018427387904, "local_bw": 1, "remote_bw": 1}`)
	f.Add(`{"nodes": 2, "cores_per_node": 2, "local_bw": 1, "remote_bw": 1, "link_overrides": {"9->-1": 1, "x": 2}}`)
	f.Fuzz(func(t *testing.T, data string) {
		var s MachineSpec
		if json.Unmarshal([]byte(data), &s) != nil {
			return
		}
		m, err := s.build()
		if err != nil {
			return
		}
		if m.Nodes() > topology.MaxNodes || m.NumCPUs() > topology.MaxCPUs {
			t.Fatalf("accepted a %d-node, %d-CPU machine", m.Nodes(), m.NumCPUs())
		}
	})
}

// FuzzWorkloadSpec decodes arbitrary JSON as a WorkloadSpec and converts it
// to a program builder without simulating it. Conversion must error or
// succeed without panicking, and an accepted spec must stay within the
// size cap.
func FuzzWorkloadSpec(f *testing.F) {
	f.Add(`{"name": "svc", "arrays": [{"name": "table", "mb": 64, "placement": "master", "pattern": "shared-random", "weight": 3}, {"name": "out", "mb": 16, "placement": "parallel", "pattern": "scan", "write_every": 2}], "mlp": 6}`)
	f.Add(`{"arrays": [{"name": "a", "mb": 17592186044416}]}`)
	f.Add(`{"arrays": [{"name": "a", "mb": 16384}, {"name": "b", "mb": 9223372036854775807}]}`)
	f.Add(`{"arrays": [{"mb": 4}]}`)
	f.Add(`{"arrays": []}`)
	f.Fuzz(func(t *testing.T, data string) {
		var w WorkloadSpec
		if json.Unmarshal([]byte(data), &w) != nil {
			return
		}
		if _, err := w.builder(); err != nil {
			return
		}
		total := 0
		for _, a := range w.Arrays {
			if a.MB <= 0 || a.Name == "" {
				t.Fatalf("accepted array %+v", a)
			}
			total += a.MB
		}
		if total > maxWorkloadMiB {
			t.Fatalf("accepted %d MiB of arrays, cap %d", total, maxWorkloadMiB)
		}
	})
}

// FuzzLoadModel parses arbitrary bytes as a saved model. Parsing must
// error or succeed without panicking, and an accepted model's tree must
// classify a Table I vector and render.
func FuzzLoadModel(f *testing.F) {
	const split = `{"leaf":false,"feature":%d,"threshold":0.5,"left":{"leaf":true},"right":{"leaf":true,"class":1}}`
	f.Add([]byte(`{"version":1,"machine":"xeon-e5-4650","tree":{"num_features":13,"num_classes":2,"root":` + fmt.Sprintf(split, 5) + `}}`))
	f.Add([]byte(`{"version":1,"tree":{"num_features":20,"num_classes":2,"root":` + fmt.Sprintf(split, 15) + `}}`))
	f.Add([]byte(`{"version":1,"machine":"two-socket","tree":{"num_features":13,"root":{"leaf":true,"class":7}}}`))
	f.Add([]byte(`{"version":1,"tree":{"num_features":13,"root":{"leaf":false,"feature":-1}}}`))
	f.Add([]byte(`{"version":2,"tree":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tool, err := loadModel(data)
		if err != nil {
			return
		}
		if n := tool.detector.Tree.NumFeatures(); n != features.NumFeatures {
			t.Fatalf("accepted a tree over %d features", n)
		}
		tool.detector.Tree.Predict(make([]float64, features.NumFeatures))
		_ = tool.Tree()
	})
}
