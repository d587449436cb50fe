package dtree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// depth is the depth of the subtree at n (a lone leaf has depth 0).
func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	return max(depth(n.left), depth(n.right)) + 1
}

// xorDataset is separable only by combining both features.
func xorDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{FeatureNames: []string{"a", "b"}, ClassNames: []string{"neg", "pos"}}
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		y := 0
		if (a > 0.5) != (b > 0.5) {
			y = 1
		}
		ds.Examples = append(ds.Examples, Example{X: []float64{a, b}, Y: y})
	}
	return ds
}

// linearDataset is separable on feature 0 alone.
func linearDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{FeatureNames: []string{"x", "junk"}, ClassNames: []string{"good", "rmc"}}
	for i := 0; i < n; i++ {
		x := rng.Float64()
		y := 0
		if x > 0.6 {
			y = 1
		}
		ds.Examples = append(ds.Examples, Example{X: []float64{x, rng.Float64()}, Y: y})
	}
	return ds
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := Train(&Dataset{}, Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
	bad := &Dataset{Examples: []Example{{X: []float64{1}, Y: 0}, {X: []float64{1, 2}, Y: 0}}}
	if _, err := Train(bad, Config{}); err == nil {
		t.Error("ragged features accepted")
	}
	neg := &Dataset{Examples: []Example{{X: []float64{1}, Y: -1}}}
	if _, err := Train(neg, Config{}); err == nil {
		t.Error("negative class accepted")
	}
}

func TestLearnsLinearSplit(t *testing.T) {
	ds := linearDataset(200, 1)
	tree, err := Train(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	errors := 0
	for _, e := range ds.Examples {
		if tree.Predict(e.X) != e.Y {
			errors++
		}
	}
	if errors > 2 {
		t.Errorf("%d training errors on linearly separable data", errors)
	}
	used := tree.UsedFeatures()
	if len(used) == 0 || used[0] != 0 {
		t.Errorf("expected splits on feature 0, used %v", used)
	}
	imp := tree.Importance()
	if imp[0] < 0.9 {
		t.Errorf("feature 0 importance %.2f, want ~1", imp[0])
	}
}

func TestLearnsXOR(t *testing.T) {
	ds := xorDataset(400, 2)
	tree, err := Train(ds, Config{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	errors := 0
	for _, e := range ds.Examples {
		if tree.Predict(e.X) != e.Y {
			errors++
		}
	}
	if float64(errors) > 0.05*float64(len(ds.Examples)) {
		t.Errorf("XOR training error %d/400", errors)
	}
	if len(tree.UsedFeatures()) != 2 {
		t.Errorf("XOR needs both features, used %v", tree.UsedFeatures())
	}
}

func TestPureLeafStopsGrowth(t *testing.T) {
	ds := &Dataset{Examples: []Example{
		{X: []float64{1}, Y: 0}, {X: []float64{2}, Y: 0}, {X: []float64{3}, Y: 0},
	}}
	tree, err := Train(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if depth(tree.root) != 0 || tree.Leaves() != 1 {
		t.Errorf("pure dataset should give a single leaf, got depth %d leaves %d", depth(tree.root), tree.Leaves())
	}
	if tree.Predict([]float64{99}) != 0 {
		t.Error("single-leaf prediction wrong")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	ds := xorDataset(400, 3)
	for _, d := range []int{1, 2, 3} {
		tree, err := Train(ds, Config{MaxDepth: d, MinLeaf: 1})
		if err != nil {
			t.Fatal(err)
		}
		if depth(tree.root) > d {
			t.Errorf("MaxDepth %d produced depth %d", d, depth(tree.root))
		}
	}
}

func TestMinLeafRespected(t *testing.T) {
	ds := linearDataset(100, 4)
	tree, err := Train(ds, Config{MinLeaf: 20})
	if err != nil {
		t.Fatal(err)
	}
	var check func(n *node) bool
	check = func(n *node) bool {
		if n == nil {
			return true
		}
		if n.leaf {
			return n.n >= 20 || n.n == len(ds.Examples)
		}
		return check(n.left) && check(n.right)
	}
	if !check(tree.root) {
		t.Error("leaf smaller than MinLeaf")
	}
}

func TestStringRendering(t *testing.T) {
	ds := linearDataset(100, 5)
	tree, _ := Train(ds, Config{MaxDepth: 2})
	s := tree.String()
	if !strings.Contains(s, "x <=") {
		t.Errorf("rendering missing feature name:\n%s", s)
	}
	if !strings.Contains(s, "[good]") && !strings.Contains(s, "[rmc]") {
		t.Errorf("rendering missing class names:\n%s", s)
	}
}

func TestConfusionMatrix(t *testing.T) {
	m := NewConfusionMatrix([]string{"good", "rmc"})
	// Paper Table III: actual good: 118 predicted good, 2 predicted rmc;
	// actual rmc: 3 predicted good, 69 predicted rmc.
	for i := 0; i < 118; i++ {
		m.Add(0, 0)
	}
	for i := 0; i < 2; i++ {
		m.Add(0, 1)
	}
	for i := 0; i < 3; i++ {
		m.Add(1, 0)
	}
	for i := 0; i < 69; i++ {
		m.Add(1, 1)
	}
	if m.Total() != 192 {
		t.Fatalf("total = %d", m.Total())
	}
	if acc := m.Accuracy(); math.Abs(acc-187.0/192) > 1e-12 {
		t.Errorf("accuracy = %f, want 187/192", acc)
	}
	if fpr := m.FalsePositiveRate(1); math.Abs(fpr-2.0/120) > 1e-12 {
		t.Errorf("FPR = %f, want 2/120", fpr)
	}
	if fnr := m.FalseNegativeRate(1); math.Abs(fnr-3.0/72) > 1e-12 {
		t.Errorf("FNR = %f, want 3/72", fnr)
	}
	s := m.String()
	if !strings.Contains(s, "118") || !strings.Contains(s, "rmc") {
		t.Errorf("matrix rendering:\n%s", s)
	}
}

func TestConfusionMatrixEmpty(t *testing.T) {
	m := NewConfusionMatrix([]string{"a", "b"})
	if !math.IsNaN(m.Accuracy()) {
		t.Error("accuracy of empty matrix should be NaN")
	}
	if !math.IsNaN(m.FalsePositiveRate(1)) || !math.IsNaN(m.FalseNegativeRate(1)) {
		t.Error("rates of empty matrix should be NaN")
	}
}

func TestStratifiedKFold(t *testing.T) {
	ds := linearDataset(100, 6)
	folds, err := StratifiedKFold(ds, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		for _, i := range f {
			if seen[i] {
				t.Fatalf("example %d in two folds", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("folds cover %d of 100", len(seen))
	}
	// Stratification: each fold's class balance within 2 of proportional.
	var totalPos int
	for _, e := range ds.Examples {
		totalPos += e.Y
	}
	for fi, f := range folds {
		pos := 0
		for _, i := range f {
			pos += ds.Examples[i].Y
		}
		expect := float64(totalPos) / 10
		if math.Abs(float64(pos)-expect) > 2 {
			t.Errorf("fold %d has %d positives, expect ~%.1f", fi, pos, expect)
		}
	}

	if _, err := StratifiedKFold(ds, 1, 0); err == nil {
		t.Error("k=1 accepted")
	}
	tiny := &Dataset{Examples: ds.Examples[:3]}
	if _, err := StratifiedKFold(tiny, 10, 0); err == nil {
		t.Error("more folds than examples accepted")
	}
}

func TestCrossValidateAccuracy(t *testing.T) {
	ds := linearDataset(200, 7)
	cm, err := CrossValidate(ds, Config{}, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total() != 200 {
		t.Fatalf("CV total = %d", cm.Total())
	}
	if acc := cm.Accuracy(); acc < 0.93 {
		t.Errorf("CV accuracy %.3f on separable data", acc)
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	ds := xorDataset(150, 8)
	a, err := CrossValidate(ds, Config{}, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(ds, Config{}, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Counts {
		for j := range a.Counts[i] {
			if a.Counts[i][j] != b.Counts[i][j] {
				t.Fatal("same seed gave different CV results")
			}
		}
	}
}

// Property: predictions are always a class present in training data.
func TestPredictClosedWorldProperty(t *testing.T) {
	ds := linearDataset(80, 10)
	tree, err := Train(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		y := tree.Predict([]float64{a, b})
		return y == 0 || y == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: training is invariant to example order.
func TestOrderInvarianceProperty(t *testing.T) {
	ds := linearDataset(60, 11)
	t1, _ := Train(ds, Config{})
	shuffled := &Dataset{FeatureNames: ds.FeatureNames, ClassNames: ds.ClassNames}
	rng := rand.New(rand.NewSource(12))
	perm := rng.Perm(len(ds.Examples))
	for _, i := range perm {
		shuffled.Examples = append(shuffled.Examples, ds.Examples[i])
	}
	t2, _ := Train(shuffled, Config{})
	probe := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		x := []float64{probe.Float64(), probe.Float64()}
		if t1.Predict(x) != t2.Predict(x) {
			t.Fatalf("order-dependent prediction at %v", x)
		}
	}
}
