package drbw

import "drbw/internal/obs"

// ReportLedgerResult converts one report — or its failure — into a run
// ledger entry. name identifies the input (a trace path, a bench label);
// a nil report with a nil error records a generic failure.
func ReportLedgerResult(name string, rep *Report, err error) obs.LedgerResult {
	lr := obs.LedgerResult{Name: name, Kind: "analysis"}
	if err != nil {
		lr.Error = err.Error()
		return lr
	}
	if rep == nil {
		lr.Error = "analysis failed"
		return lr
	}
	det := rep.Detected
	lr.Detected = &det
	lr.Channels = append([]string(nil), rep.Channels...)
	lr.Samples = rep.Samples
	for _, o := range rep.Objects {
		lr.Objects = append(lr.Objects, obs.LedgerObject{Name: o.Name, CF: o.CF})
	}
	return lr
}
