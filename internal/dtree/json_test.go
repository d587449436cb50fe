package dtree

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func TestTreeJSONRoundTrip(t *testing.T) {
	ds := xorDataset(300, 21)
	orig, err := Train(ds, Config{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored Tree
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	// Identical predictions on a probe grid.
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if orig.Predict(x) != restored.Predict(x) {
			t.Fatalf("prediction diverged at %v", x)
		}
	}
	// Structure and rendering preserved.
	if depth(orig.root) != depth(restored.root) || orig.Leaves() != restored.Leaves() {
		t.Errorf("structure changed: depth %d/%d leaves %d/%d",
			depth(orig.root), depth(restored.root), orig.Leaves(), restored.Leaves())
	}
	if orig.String() != restored.String() {
		t.Errorf("rendering changed:\n%s\nvs\n%s", orig, &restored)
	}
	u1, u2 := orig.UsedFeatures(), restored.UsedFeatures()
	if len(u1) != len(u2) {
		t.Errorf("used features changed: %v vs %v", u1, u2)
	}
	imp := restored.Importance()
	if len(imp) != 2 {
		t.Errorf("importance lost: %v", imp)
	}
}

func TestTreeJSONValidation(t *testing.T) {
	var tr Tree
	if err := json.Unmarshal([]byte(`{}`), &tr); err == nil {
		t.Error("rootless tree accepted")
	}
	if err := json.Unmarshal([]byte(`{"num_features":2,"root":{"leaf":false,"feature":9,
		"left":{"leaf":true},"right":{"leaf":true}}}`), &tr); err == nil {
		t.Error("out-of-range feature accepted")
	}
	if err := json.Unmarshal([]byte(`{"num_features":2,"root":{"leaf":false,"feature":0,
		"left":{"leaf":true}}}`), &tr); err == nil {
		t.Error("missing child accepted")
	}
	if err := json.Unmarshal([]byte(`{"num_features":0,"root":{"leaf":true}}`), &tr); err == nil {
		t.Error("zero features accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &tr); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTreeJSONSingleLeaf(t *testing.T) {
	ds := &Dataset{Examples: []Example{{X: []float64{1}, Y: 0}}}
	orig, err := Train(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var restored Tree
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Predict([]float64{42}) != 0 {
		t.Error("leaf-only tree prediction wrong")
	}
}
