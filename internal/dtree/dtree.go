// Package dtree implements the CART decision-tree classifier DR-BW trains
// on its micro-benchmark runs (the paper used MATLAB 2016a's Statistics and
// Machine Learning toolbox; this is the same algorithm family: binary
// splits, Gini impurity, greedy growth).
//
// The package also provides the evaluation machinery the paper reports:
// stratified k-fold cross validation (Section V-D uses stratified 10-fold)
// and confusion matrices (Tables III and VI).
package dtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Example is one labeled feature vector.
type Example struct {
	X []float64
	Y int // class index
}

// Dataset is a labeled training set.
type Dataset struct {
	Examples     []Example
	FeatureNames []string // optional; indexes into Example.X
	ClassNames   []string // optional; indexes by class
}

func (d *Dataset) numClasses() int {
	n := len(d.ClassNames)
	for _, e := range d.Examples {
		if e.Y+1 > n {
			n = e.Y + 1
		}
	}
	return n
}

func (d *Dataset) featureName(i int) string {
	if i >= 0 && i < len(d.FeatureNames) && d.FeatureNames[i] != "" {
		return d.FeatureNames[i]
	}
	return fmt.Sprintf("feature %d", i+1)
}

func (d *Dataset) className(i int) string {
	if i >= 0 && i < len(d.ClassNames) && d.ClassNames[i] != "" {
		return d.ClassNames[i]
	}
	return fmt.Sprintf("class %d", i)
}

// Config controls tree growth.
type Config struct {
	// MaxDepth bounds the tree. <= 0 uses 8.
	MaxDepth int
	// MinLeaf is the minimum examples per leaf. <= 0 uses 2.
	MinLeaf int
	// MinImpurityDecrease prunes splits with negligible gain. < 0 treated
	// as 0; 0 uses 1e-7.
	MinImpurityDecrease float64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.MinImpurityDecrease <= 0 {
		c.MinImpurityDecrease = 1e-7
	}
	return c
}

type node struct {
	// Internal nodes.
	feature   int
	threshold float64
	left      *node // x[feature] <= threshold
	right     *node // x[feature] >  threshold
	// Leaves.
	leaf  bool
	class int
	// Diagnostics.
	n        int
	impurity float64
}

// Tree is a trained classifier.
type Tree struct {
	root       *node
	numFeat    int
	numClass   int
	ds         *Dataset // for names only
	importance []float64
}

// Train grows a tree on ds.
func Train(ds *Dataset, cfg Config) (*Tree, error) {
	if ds == nil || len(ds.Examples) == 0 {
		return nil, fmt.Errorf("dtree: empty dataset")
	}
	cfg = cfg.withDefaults()
	nf := len(ds.Examples[0].X)
	for i, e := range ds.Examples {
		if len(e.X) != nf {
			return nil, fmt.Errorf("dtree: example %d has %d features, want %d", i, len(e.X), nf)
		}
		if e.Y < 0 {
			return nil, fmt.Errorf("dtree: example %d has negative class %d", i, e.Y)
		}
	}
	nc := ds.numClasses()
	t := &Tree{numFeat: nf, numClass: nc, ds: ds, importance: make([]float64, nf)}
	idx := make([]int, len(ds.Examples))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(ds, idx, cfg, 0)
	return t, nil
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

func (t *Tree) classCounts(ds *Dataset, idx []int) []int {
	counts := make([]int, t.numClass)
	for _, i := range idx {
		counts[ds.Examples[i].Y]++
	}
	return counts
}

func majority(counts []int) int {
	best, bestC := 0, -1
	for c, n := range counts {
		if n > bestC {
			best, bestC = c, n
		}
	}
	return best
}

func (t *Tree) grow(ds *Dataset, idx []int, cfg Config, depth int) *node {
	counts := t.classCounts(ds, idx)
	imp := gini(counts, len(idx))
	nd := &node{n: len(idx), impurity: imp, class: majority(counts)}
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf || imp == 0 {
		nd.leaf = true
		return nd
	}

	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	order := make([]int, len(idx))
	for f := 0; f < t.numFeat; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool {
			return ds.Examples[order[a]].X[f] < ds.Examples[order[b]].X[f]
		})
		leftCounts := make([]int, t.numClass)
		rightCounts := append([]int(nil), counts...)
		for k := 0; k < len(order)-1; k++ {
			y := ds.Examples[order[k]].Y
			leftCounts[y]++
			rightCounts[y]--
			xa := ds.Examples[order[k]].X[f]
			xb := ds.Examples[order[k+1]].X[f]
			if xa == xb {
				continue
			}
			nl, nr := k+1, len(order)-k-1
			if nl < cfg.MinLeaf || nr < cfg.MinLeaf {
				continue
			}
			w := float64(len(order))
			gain := imp - (float64(nl)/w)*gini(leftCounts, nl) - (float64(nr)/w)*gini(rightCounts, nr)
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (xa + xb) / 2
			}
		}
	}
	if bestFeat < 0 || bestGain < cfg.MinImpurityDecrease {
		nd.leaf = true
		return nd
	}

	var li, ri []int
	for _, i := range idx {
		if ds.Examples[i].X[bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	nd.feature = bestFeat
	nd.threshold = bestThresh
	t.importance[bestFeat] += bestGain * float64(len(idx))
	nd.left = t.grow(ds, li, cfg, depth+1)
	nd.right = t.grow(ds, ri, cfg, depth+1)
	return nd
}

// Predict classifies x.
func (t *Tree) Predict(x []float64) int {
	nd := t.root
	for !nd.leaf {
		if x[nd.feature] <= nd.threshold {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.class
}

// NumFeatures is the length of the feature vectors the tree classifies.
func (t *Tree) NumFeatures() int { return t.numFeat }

// Depth returns the tree depth (a lone leaf has depth 0).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves counts the leaf nodes.
func (t *Tree) Leaves() int { return leaves(t.root) }

func leaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}

// UsedFeatures lists the distinct feature indices appearing in splits,
// sorted. The paper's Figure 3 tree uses exactly two (features 6 and 7 of
// Table I).
func (t *Tree) UsedFeatures() []int {
	set := map[int]bool{}
	var walk func(*node)
	walk = func(n *node) {
		if n == nil || n.leaf {
			return
		}
		set[n.feature] = true
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	out := make([]int, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// Importance returns normalized impurity-decrease importances per feature.
func (t *Tree) Importance() []float64 {
	out := make([]float64, len(t.importance))
	var sum float64
	for _, v := range t.importance {
		sum += v
	}
	if sum == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / sum
	}
	return out
}

// String renders the tree in the style of the paper's Figure 3: internal
// nodes labeled with features and thresholds, leaves with classes.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, t.root, "", true)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, n *node, prefix string, root bool) {
	if n == nil {
		return
	}
	connector := ""
	if !root {
		connector = prefix
	}
	if n.leaf {
		fmt.Fprintf(b, "%s[%s] (n=%d)\n", connector, t.ds.className(n.class), n.n)
		return
	}
	fmt.Fprintf(b, "%s%s <= %.4g? (n=%d, gini=%.3f)\n", connector, t.ds.featureName(n.feature), n.threshold, n.n, n.impurity)
	childPrefix := strings.Repeat(" ", len(prefix))
	t.render(b, n.left, childPrefix+"  yes-> ", false)
	t.render(b, n.right, childPrefix+"  no--> ", false)
}

// --- Evaluation ---

// ConfusionMatrix counts predictions: M[actual][predicted].
type ConfusionMatrix struct {
	Counts     [][]int
	ClassNames []string
}

// NewConfusionMatrix returns a zeroed n-class matrix.
func NewConfusionMatrix(classNames []string) *ConfusionMatrix {
	n := len(classNames)
	m := &ConfusionMatrix{ClassNames: classNames, Counts: make([][]int, n)}
	for i := range m.Counts {
		m.Counts[i] = make([]int, n)
	}
	return m
}

// Add records one (actual, predicted) outcome.
func (m *ConfusionMatrix) Add(actual, predicted int) {
	m.Counts[actual][predicted]++
}

// Total returns the number of recorded outcomes.
func (m *ConfusionMatrix) Total() int {
	t := 0
	for _, row := range m.Counts {
		for _, c := range row {
			t += c
		}
	}
	return t
}

// Accuracy is the fraction of correct predictions.
func (m *ConfusionMatrix) Accuracy() float64 {
	total := m.Total()
	if total == 0 {
		return math.NaN()
	}
	correct := 0
	for i := range m.Counts {
		correct += m.Counts[i][i]
	}
	return float64(correct) / float64(total)
}

// FalsePositiveRate treats class positive as "positive": the fraction of
// actual negatives predicted positive (the paper's Table VI definition with
// rmc positive).
func (m *ConfusionMatrix) FalsePositiveRate(positive int) float64 {
	fp, n := 0, 0
	for actual := range m.Counts {
		if actual == positive {
			continue
		}
		for pred, c := range m.Counts[actual] {
			n += c
			if pred == positive {
				fp += c
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(fp) / float64(n)
}

// FalseNegativeRate is the fraction of actual positives predicted negative.
func (m *ConfusionMatrix) FalseNegativeRate(positive int) float64 {
	fn, p := 0, 0
	for pred, c := range m.Counts[positive] {
		p += c
		if pred != positive {
			fn += c
		}
	}
	if p == 0 {
		return math.NaN()
	}
	return float64(fn) / float64(p)
}

// String renders the matrix as an aligned table.
func (m *ConfusionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "actual\\pred")
	for _, c := range m.ClassNames {
		fmt.Fprintf(&b, "%10s", c)
	}
	b.WriteByte('\n')
	for i, row := range m.Counts {
		fmt.Fprintf(&b, "%-12s", m.ClassNames[i])
		for _, c := range row {
			fmt.Fprintf(&b, "%10d", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// StratifiedKFold partitions example indices into k folds preserving class
// proportions, deterministically for a given seed.
func StratifiedKFold(ds *Dataset, k int, seed int64) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("dtree: k must be >= 2, got %d", k)
	}
	if len(ds.Examples) < k {
		return nil, fmt.Errorf("dtree: %d examples cannot fill %d folds", len(ds.Examples), k)
	}
	rng := rand.New(rand.NewSource(seed))
	byClass := map[int][]int{}
	for i, e := range ds.Examples {
		byClass[e.Y] = append(byClass[e.Y], i)
	}
	folds := make([][]int, k)
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	next := 0
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx {
			folds[next%k] = append(folds[next%k], i)
			next++
		}
	}
	return folds, nil
}

// CrossValidate runs stratified k-fold cross validation and returns the
// pooled confusion matrix (the paper's Table III methodology).
func CrossValidate(ds *Dataset, cfg Config, k int, seed int64) (*ConfusionMatrix, error) {
	folds, err := StratifiedKFold(ds, k, seed)
	if err != nil {
		return nil, err
	}
	names := ds.ClassNames
	if len(names) == 0 {
		nc := ds.numClasses()
		for i := 0; i < nc; i++ {
			names = append(names, fmt.Sprintf("class %d", i))
		}
	}
	cm := NewConfusionMatrix(names)
	for f := 0; f < k; f++ {
		holdout := map[int]bool{}
		for _, i := range folds[f] {
			holdout[i] = true
		}
		train := &Dataset{FeatureNames: ds.FeatureNames, ClassNames: ds.ClassNames}
		for i, e := range ds.Examples {
			if !holdout[i] {
				train.Examples = append(train.Examples, e)
			}
		}
		tree, err := Train(train, cfg)
		if err != nil {
			return nil, fmt.Errorf("dtree: fold %d: %w", f, err)
		}
		for _, i := range folds[f] {
			cm.Add(ds.Examples[i].Y, tree.Predict(ds.Examples[i].X))
		}
	}
	return cm, nil
}
