package drbw_test

import (
	"os"
	"path/filepath"
	"testing"

	"drbw"
)

// epycLike is a plausible custom 2-socket machine.
func epycLike() drbw.MachineSpec {
	return drbw.MachineSpec{
		Name:         "epyc-like 2-socket",
		Nodes:        2,
		CoresPerNode: 16,
		LocalBW:      20,
		RemoteBW:     6,
		LinkOverrides: map[string]float64{
			"1->0": 5,
		},
		LocalDRAMLatency:  200,
		RemoteDRAMLatency: 330,
	}
}

func TestTrainOnCustomMachine(t *testing.T) {
	tool, err := drbw.TrainOn(epycLike(), drbw.Config{Quick: true, Window: 4096, Warmup: 2048, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if name := drbw.MachineName(tool); name != "epyc-like 2-socket" {
		t.Errorf("machine name %q", name)
	}
	// The 2-node machine skips N3/N4 configurations but keeps both classes.
	if tool.TrainingRuns() == 0 {
		t.Fatal("no training runs")
	}
	sum := tool.TrainingSummary()
	good, rmc := 0, 0
	for _, s := range sum {
		good += s["good"]
		rmc += s["rmc"]
	}
	if good == 0 || rmc == 0 {
		t.Fatalf("training lost a class: %d good / %d rmc", good, rmc)
	}
	// A custom workload analysis works end to end on the custom machine.
	w := drbw.WorkloadSpec{
		Name: "hot",
		Arrays: []drbw.ArraySpec{
			{Name: "shared", MB: 64, Placement: drbw.Master, Pattern: drbw.Scan},
		},
		MLP: 8, WorkCycles: 1,
	}
	rep, err := tool.AnalyzeWorkload(w, drbw.Case{Threads: 16, Nodes: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Contended() {
		t.Error("centralized scan on custom machine not detected")
	}
}

func TestTrainOnTooSmallMachine(t *testing.T) {
	tiny := drbw.MachineSpec{Nodes: 1, CoresPerNode: 2, LocalBW: 10, RemoteBW: 5}
	if _, err := drbw.TrainOn(tiny, drbw.Config{Quick: true}); err == nil {
		t.Error("single-node machine accepted for training")
	}
}

func TestMachineSpecValidation(t *testing.T) {
	bad := epycLike()
	bad.LinkOverrides = map[string]float64{"nonsense": 5}
	if _, err := drbw.TrainOn(bad, drbw.Config{Quick: true}); err == nil {
		t.Error("bad link override key accepted")
	}
	zero := drbw.MachineSpec{}
	if _, err := drbw.TrainOn(zero, drbw.Config{Quick: true}); err == nil {
		t.Error("zero spec accepted")
	}
}

func TestLoadMachineSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.json")
	body := `{
		"name": "test box", "nodes": 2, "cores_per_node": 8,
		"local_bw": 16, "remote_bw": 5,
		"link_overrides": {"0->1": 4.5}
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := drbw.LoadMachineSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "test box" || spec.Nodes != 2 || spec.LinkOverrides["0->1"] != 4.5 {
		t.Errorf("spec parsed wrong: %+v", spec)
	}
	if _, err := drbw.LoadMachineSpec(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(badPath, []byte("{"), 0o644)
	if _, err := drbw.LoadMachineSpec(badPath); err == nil {
		t.Error("truncated json accepted")
	}
}
