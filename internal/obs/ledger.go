package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// Run ledger: a machine-readable audit artifact one CLI invocation writes
// via -ledger. It captures what ran (tool, build provenance, hashed
// configuration), how long the tiers took, the final metrics snapshot, and
// what came out (verdicts, diagnosed objects, chosen placements), in a
// stable schema scripts can parse.
//
// Determinism contract: the marshaled ledger is a pure function of its
// field values (structs marshal in declaration order, maps sorted by key),
// and the volatile sections — timings, metrics — are segregated from the
// reproducible ones. Fingerprint hashes only the reproducible subset
// (schema, tool, config, results), so two runs over the same trace with
// the same configuration produce byte-identical deterministic sections and
// equal fingerprints however long they took.

// LedgerSchema identifies the ledger format; bump on breaking changes.
const LedgerSchema = "drbw.ledger/1"

// BuildInfo is the binary's provenance, read from the Go build metadata.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	Module      string `json:"module,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// readBuildInfo extracts provenance from the running binary.
func readBuildInfo() BuildInfo {
	out := BuildInfo{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.Module = bi.Main.Path
	out.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.VCSRevision = s.Value
		case "vcs.time":
			out.VCSTime = s.Value
		case "vcs.modified":
			out.VCSModified = s.Value == "true"
		}
	}
	return out
}

// LedgerObject is one diagnosed object in a result.
type LedgerObject struct {
	Name string  `json:"name"`
	CF   float64 `json:"cf"`
}

// LedgerResult is one analysis or optimization outcome.
type LedgerResult struct {
	// Name identifies the input: a trace path, a "bench input Tt-Nn" label.
	Name string `json:"name"`
	// Kind is "analysis", "optimization", or a tool-specific label.
	Kind string `json:"kind"`
	// Detected is the classifier verdict (nil when the result carries none,
	// e.g. a failed case).
	Detected *bool `json:"detected,omitempty"`
	// Channels lists contended channels in report order.
	Channels []string `json:"channels,omitempty"`
	// Samples counts the samples behind the verdict (retained samples for
	// live runs, streamed samples for trace analyses).
	Samples int64 `json:"samples,omitempty"`
	// Objects ranks diagnosed objects by CF.
	Objects []LedgerObject `json:"objects,omitempty"`
	// Placement and Speedup report a closed-loop optimization's choice.
	Placement string  `json:"placement,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
	// Error records a failed case without aborting the ledger.
	Error string `json:"error,omitempty"`
}

// Ledger is the full run artifact. Field order is the wire order.
type Ledger struct {
	Schema     string            `json:"schema"`
	Tool       string            `json:"tool"`
	ConfigHash string            `json:"config_hash"`
	Config     map[string]string `json:"config"`
	Results    []LedgerResult    `json:"results"`
	// Fingerprint is the hex SHA-256 of DeterministicBytes, filled by
	// Marshal/Write. Recomputable by any reader for tamper checks.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Volatile sections: excluded from Fingerprint.
	Build          BuildInfo          `json:"build"`
	TimingsSeconds map[string]float64 `json:"timings_seconds,omitempty"`
	Metrics        *Snapshot          `json:"metrics,omitempty"`
}

// NewLedger starts a ledger for one tool invocation. config is the
// effective flag/option set; its canonical hash pins the run configuration.
func NewLedger(tool string, config map[string]string) *Ledger {
	return &Ledger{
		Schema:     LedgerSchema,
		Tool:       tool,
		Config:     config,
		ConfigHash: HashConfig(config),
		Build:      readBuildInfo(),
	}
}

// HashConfig returns the hex SHA-256 of the canonical (sorted "k=v\n")
// rendering of a configuration map.
func HashConfig(config map[string]string) string {
	keys := make([]string, 0, len(config))
	for k := range config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, config[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// AddResult appends one outcome.
func (l *Ledger) AddResult(r LedgerResult) { l.Results = append(l.Results, r) }

// AddTiming records one tier's wall-clock seconds (train, analyze, total).
func (l *Ledger) AddTiming(name string, seconds float64) {
	if l.TimingsSeconds == nil {
		l.TimingsSeconds = map[string]float64{}
	}
	l.TimingsSeconds[name] = seconds
}

// AttachMetrics embeds the default registry's final snapshot.
func (l *Ledger) AttachMetrics() {
	s := Default.Snapshot()
	l.Metrics = &s
}

// deterministicView is the reproducible subset of the ledger, marshaled
// for fingerprinting and for byte-determinism tests.
type deterministicView struct {
	Schema     string            `json:"schema"`
	Tool       string            `json:"tool"`
	ConfigHash string            `json:"config_hash"`
	Config     map[string]string `json:"config"`
	Results    []LedgerResult    `json:"results"`
}

// DeterministicBytes marshals the reproducible subset of the ledger:
// identical trace + configuration ⇒ identical bytes, regardless of
// timings, metrics, or the machine the run happened on.
func (l *Ledger) DeterministicBytes() ([]byte, error) {
	return json.MarshalIndent(deterministicView{
		Schema:     l.Schema,
		Tool:       l.Tool,
		ConfigHash: l.ConfigHash,
		Config:     l.Config,
		Results:    l.Results,
	}, "", "  ")
}

// Marshal renders the full ledger, computing the fingerprint first.
func (l *Ledger) Marshal() ([]byte, error) {
	det, err := l.DeterministicBytes()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(det)
	l.Fingerprint = hex.EncodeToString(sum[:])
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Write marshals the ledger to path.
func (l *Ledger) Write(path string) error {
	b, err := l.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("obs: write ledger: %w", err)
	}
	return nil
}
