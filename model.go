package drbw

import (
	"encoding/json"
	"fmt"
	"os"

	"drbw/internal/core"
	"drbw/internal/dtree"
	"drbw/internal/features"
)

// modelVersion guards the on-disk format.
const modelVersion = 1

// savedModel is the JSON layout of a persisted classifier.
type savedModel struct {
	Version int                       `json:"version"`
	Machine Machine                   `json:"machine"`
	Config  Config                    `json:"config"`
	Summary map[string]map[string]int `json:"training_summary,omitempty"`
	Tree    json.RawMessage           `json:"tree"`
}

// Save persists the trained classifier to path as JSON. The file carries
// the decision tree, the machine it was trained for, and the training
// summary; it does not carry the raw training runs, so a loaded tool can
// Analyze/Evaluate/Optimize but not CrossValidate.
func (t *Tool) Save(path string) error {
	treeJSON, err := json.Marshal(t.detector.Tree)
	if err != nil {
		return fmt.Errorf("drbw: serializing tree: %w", err)
	}
	m := savedModel{
		Version: modelVersion,
		Machine: t.cfg.Machine,
		Config:  t.cfg,
		Summary: t.TrainingSummary(),
		Tree:    treeJSON,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("drbw: serializing model: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load restores a classifier saved with Save. The returned tool analyzes
// and optimizes like a freshly trained one; methods that need the raw
// training runs (CrossValidate, SelectedCandidates) report an error or
// empty results.
func Load(path string) (*Tool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("drbw: %w", err)
	}
	tool, err := loadModel(data)
	if err != nil {
		return nil, fmt.Errorf("drbw: model %s: %w", path, err)
	}
	return tool, nil
}

// loadModel parses a saved model. The tree must split the Table I feature
// vector exactly, so every vector the tool extracts can be classified.
func loadModel(data []byte) (*Tool, error) {
	var m savedModel
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	if m.Version != modelVersion {
		return nil, fmt.Errorf("version %d, this build reads %d", m.Version, modelVersion)
	}
	machine, err := m.Machine.build()
	if err != nil {
		return nil, err
	}
	var tree dtree.Tree
	if err := json.Unmarshal(m.Tree, &tree); err != nil {
		return nil, err
	}
	if n := tree.NumFeatures(); n != features.NumFeatures {
		return nil, fmt.Errorf("tree takes %d features, the Table I vector has %d", n, features.NumFeatures)
	}
	cfg := m.Config
	cfg.Machine = m.Machine
	return &Tool{
		cfg:      cfg,
		machine:  machine,
		detector: core.NewDetector(&tree, cfg.engineConfig()),
		summary:  m.Summary,
	}, nil
}

// errNoTrainingData reports operations that need the raw training runs.
var errNoTrainingData = fmt.Errorf("drbw: this tool was loaded from a saved model and carries no training runs; retrain with drbw.Train to cross-validate")
