package workloads

import (
	"sort"

	"drbw/internal/features"
	"drbw/internal/program"
)

// Entry describes one benchmark of the evaluation suite.
type Entry struct {
	Builder program.Builder
	// Suite is the benchmark's origin: PARSEC, NPB, Rodinia, Sequoia, LLNL.
	Suite string
	// PaperClass is the class Table IV reports for the benchmark (the
	// overall result across all cases) — recorded for comparison, never
	// used by detection.
	PaperClass features.Label
	// InTableV reports whether the paper's Table V lists per-case counts
	// for this benchmark (Raytrace and LULESH are only in Table IV).
	InTableV bool
}

// Name returns the benchmark name.
func (e Entry) Name() string { return e.Builder.Name }

// Cases returns the number of evaluation cases: inputs × the eight
// standard Tt-Nn configurations.
func (e Entry) Cases() int { return len(e.Builder.Inputs) * len(program.StandardConfigs()) }

// All returns the 23 benchmarks of Section VII in a stable order.
func All() []Entry {
	entries := []Entry{
		{Builder: Swaptions(), Suite: "PARSEC", PaperClass: features.Good, InTableV: true},
		{Builder: Blackscholes(), Suite: "PARSEC", PaperClass: features.Good, InTableV: true},
		{Builder: Bodytrack(), Suite: "PARSEC", PaperClass: features.Good, InTableV: true},
		{Builder: Freqmine(), Suite: "PARSEC", PaperClass: features.Good, InTableV: true},
		{Builder: Ferret(), Suite: "PARSEC", PaperClass: features.Good, InTableV: true},
		{Builder: Fluidanimate(), Suite: "PARSEC", PaperClass: features.Good, InTableV: true},
		{Builder: Raytrace(), Suite: "PARSEC", PaperClass: features.Good, InTableV: false},
		{Builder: X264(), Suite: "PARSEC", PaperClass: features.Good, InTableV: true},
		{Builder: Streamcluster(), Suite: "PARSEC", PaperClass: features.RMC, InTableV: true},
		{Builder: BT(), Suite: "NPB", PaperClass: features.Good, InTableV: true},
		{Builder: CG(), Suite: "NPB", PaperClass: features.Good, InTableV: true},
		{Builder: DC(), Suite: "NPB", PaperClass: features.Good, InTableV: true},
		{Builder: EP(), Suite: "NPB", PaperClass: features.Good, InTableV: true},
		{Builder: FT(), Suite: "NPB", PaperClass: features.Good, InTableV: true},
		{Builder: IS(), Suite: "NPB", PaperClass: features.Good, InTableV: true},
		{Builder: LU(), Suite: "NPB", PaperClass: features.Good, InTableV: true},
		{Builder: MG(), Suite: "NPB", PaperClass: features.Good, InTableV: true},
		{Builder: UA(), Suite: "NPB", PaperClass: features.Good, InTableV: true},
		{Builder: SP(), Suite: "NPB", PaperClass: features.RMC, InTableV: true},
		{Builder: NW(), Suite: "Rodinia", PaperClass: features.RMC, InTableV: true},
		{Builder: AMG2006(), Suite: "Sequoia", PaperClass: features.RMC, InTableV: true},
		{Builder: IRSmk(), Suite: "Sequoia", PaperClass: features.RMC, InTableV: true},
		{Builder: LULESH(), Suite: "LLNL", PaperClass: features.RMC, InTableV: false},
	}
	return entries
}

// ByName finds a benchmark entry by (case-sensitive) name.
func ByName(name string) (Entry, bool) {
	for _, e := range All() {
		if e.Name() == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists all benchmark names, sorted.
func Names() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out
}
