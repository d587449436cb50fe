package drbw_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"drbw"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tl := sharedTool(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := tl.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := drbw.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// The loaded tool renders the same tree and detects the same cases.
	if loaded.Tree() != tl.Tree() {
		t.Errorf("tree changed across save/load:\n%s\nvs\n%s", tl.Tree(), loaded.Tree())
	}
	c := drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 33}
	orig, err := tl.Analyze("Streamcluster", c)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.Analyze("Streamcluster", c)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Detected != again.Detected {
		t.Error("detection changed across save/load")
	}
	if len(orig.Objects) > 0 && len(again.Objects) > 0 &&
		orig.Objects[0].Name != again.Objects[0].Name {
		t.Error("diagnosis changed across save/load")
	}

	// Persisted summary survives; raw training data does not.
	if loaded.TrainingRuns() != 0 {
		t.Error("loaded tool claims training runs")
	}
	if loaded.TrainingSummary()["bandit"]["good"] == 0 {
		t.Error("training summary lost")
	}
	if _, err := loaded.CrossValidate(); err == nil {
		t.Error("cross validation without training data accepted")
	}
	if loaded.SelectedCandidates() != nil {
		t.Error("selection experiment without training data returned data")
	}
	// Optimization still works.
	cmp, err := loaded.Optimize("Streamcluster", c, drbw.Replicate, "block")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup() < 1.2 {
		t.Errorf("loaded tool optimize speedup %.2f", cmp.Speedup())
	}
}

// TestModelCarriesNoWorkerCount: a saved model has no worker count, since
// every fan-out sizes itself from GOMAXPROCS, and a model from an older
// build that still carries "Workers" loads and analyzes exactly like a
// fresh save.
func TestModelCarriesNoWorkerCount(t *testing.T) {
	tl := sharedTool(t)
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.json")
	if err := tl.Save(fresh); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	cfg, ok := m["config"].(map[string]any)
	if !ok {
		t.Fatalf("saved model has no config object: %s", data)
	}
	if _, ok := cfg["Workers"]; ok {
		t.Fatalf("saved model carries a worker count: %s", data)
	}

	cfg["Workers"] = 1
	oldData, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, oldData, 0o644); err != nil {
		t.Fatal(err)
	}
	c := drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 33}
	var reports []*drbw.Report
	for _, path := range []string{fresh, old} {
		loaded, err := drbw.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		rep, err := loaded.Analyze("Streamcluster", c)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("model with a worker count analyzes differently:\n got %+v\nwant %+v", reports[1], reports[0])
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := drbw.Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	const split = `{"leaf":false,"feature":%d,"threshold":0.5,"left":{"leaf":true},"right":{"leaf":true,"class":1}}`
	cases := []struct{ name, body, want string }{
		{"garbage", "not json", "parsing"},
		{"future version", `{"version":99,"tree":{}}`, "version 99"},
		{"unknown machine", `{"version":1,"machine":"vax","tree":{}}`, "unknown machine"},
		// A tree over more features than the Table I vector would index
		// past every extracted vector when it classifies.
		{"tree over 20 features", `{"version":1,"tree":{"num_features":20,"num_classes":2,"root":` + fmt.Sprintf(split, 15) + `}}`, "20 features"},
		{"tree over 5 features", `{"version":1,"tree":{"num_features":5,"num_classes":2,"root":` + fmt.Sprintf(split, 3) + `}}`, "5 features"},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "model.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := drbw.Load(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The same tree over the Table I vector loads.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"tree":{"num_features":13,"num_classes":2,"root":`+fmt.Sprintf(split, 5)+`}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := drbw.Load(path); err != nil {
		t.Errorf("valid 13-feature tree rejected: %v", err)
	}
}
