package drbw_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drbw"
	"drbw/internal/obs"
)

// TestChromeTraceCoversBlockRanges runs a traced analysis over both the
// indexed block-range path and the shard fan-out, then checks the Chrome
// export end to end: the JSON loads as trace-event format, every per-job
// "case" span carries its portion identity ([from, to) plus worker id),
// and together the block-range spans tile the whole recording.
func TestChromeTraceCoversBlockRanges(t *testing.T) {
	tl := sharedTool(t)
	td, sPath, oPath := recordTo(t, tl, 91, drbw.FormatBinary)
	shards, shardObjs := splitTrace(t, td, 3)

	// The test exercises the block fan-out, which a one-worker pool skips
	// in favor of the serial path; pin GOMAXPROCS=2 so the fan-out runs
	// even on single-CPU hosts.
	setProcs(t, 2)

	obs.StartTracing()
	t.Cleanup(func() { obs.StopTracing() })
	if _, err := tl.AnalyzeTraceFile(sPath, oPath); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.AnalyzeTraceShards(shards, shardObjs); err != nil {
		t.Fatal(err)
	}
	tr := obs.StopTracing()
	if tr == nil {
		t.Fatal("tracer vanished mid-test")
	}

	var buf bytes.Buffer
	if err := tr.Export(&buf, obs.TraceChrome); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int64          `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}

	roots := map[string]bool{}
	// covered[from] = to for the block-range spans of the indexed path.
	covered := map[int]int{}
	shardPortions := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected phase %q in event %+v", ev.Ph, ev)
		}
		roots[ev.Name] = true
		if ev.Name != "case" {
			continue
		}
		portion, ok := ev.Args["portion"].(string)
		if !ok {
			continue // pool cases from other instrumented call sites
		}
		w, ok := ev.Args["worker"].(float64)
		if !ok {
			t.Fatalf("case span missing worker attr: %+v", ev.Args)
		}
		if ev.Tid != int64(w)+1 {
			t.Fatalf("tid %d does not encode worker %v", ev.Tid, w)
		}
		from, okF := ev.Args["from"].(float64)
		to, okT := ev.Args["to"].(float64)
		if !okF || !okT {
			t.Fatalf("case span missing from/to attrs: %+v", ev.Args)
		}
		if portion == "blocks" {
			covered[int(from)] = int(to)
		}
		if strings.HasSuffix(portion, ".bin") {
			shardPortions[portion] = true
		}
	}
	for _, name := range []string{"analyze.trace_file", "analyze.shards", "case"} {
		if !roots[name] {
			t.Fatalf("trace has no %q span; got %v", name, roots)
		}
	}
	if len(covered) == 0 {
		t.Fatal("no block-range spans recorded for the indexed path")
	}
	// The block ranges must tile [0, N) with no gaps.
	next, max := 0, 0
	for _, to := range covered {
		if to > max {
			max = to
		}
	}
	for next < max {
		to, ok := covered[next]
		if !ok || to <= next {
			t.Fatalf("block coverage gap at %d (ranges %v)", next, covered)
		}
		next = to
	}
	if len(shardPortions) != len(shards) {
		t.Fatalf("shard spans name %d distinct files, want %d: %v",
			len(shardPortions), len(shards), shardPortions)
	}
}

// TestFlightDumpOnAnalysisError corrupts a recording and checks that the
// failing analysis dumps the flight recorder to the configured sink with
// the failing operation named.
func TestFlightDumpOnAnalysisError(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, oPath := recordTo(t, tl, 92, drbw.FormatBinary)

	// Truncate the samples file mid-stream so decoding fails.
	b, err := os.ReadFile(sPath)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "truncated.bin")
	if err := os.WriteFile(bad, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	obs.SetFlightSink(&buf)
	t.Cleanup(func() { obs.SetFlightSink(nil) })

	if _, err := tl.AnalyzeTraceFile(bad, oPath); err == nil {
		t.Fatal("truncated recording analyzed without error")
	}
	out := buf.String()
	if !strings.Contains(out, "analyze.trace_file failed:") {
		t.Fatalf("flight dump missing failure line:\n%s", out)
	}
	if !strings.Contains(out, "flight recorder:") {
		t.Fatalf("flight dump missing recorder header:\n%s", out)
	}
}

// TestLedgerDeterministicAcrossRuns analyzes the same recording twice and
// requires byte-identical deterministic ledger sections — the audit
// guarantee that a rerun with the same trace and config is provably the
// same computation. It also pins the sample-count audit link between the
// recording and its report.
func TestLedgerDeterministicAcrossRuns(t *testing.T) {
	tl := sharedTool(t)
	td, sPath, oPath := recordTo(t, tl, 93, drbw.FormatBinary)

	build := func() []byte {
		rep, err := tl.AnalyzeTraceFile(sPath, oPath)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Samples != int64(len(td.Samples)) {
			t.Fatalf("report samples %d != recorded %d", rep.Samples, len(td.Samples))
		}
		led := obs.NewLedger("drbw-analyze", map[string]string{
			"samples": sPath,
			"objects": oPath,
		})
		led.AddResult(drbw.ReportLedgerResult(sPath, rep, nil))
		led.AttachMetrics() // volatile; must not leak into the bytes
		det, err := led.DeterministicBytes()
		if err != nil {
			t.Fatal(err)
		}
		return det
	}

	one, two := build(), build()
	if !bytes.Equal(one, two) {
		t.Fatalf("ledger deterministic sections differ across reruns:\n%s\n%s", one, two)
	}

	// The full marshal round-trips and its fingerprint matches the
	// deterministic section (schema contract shared with the CI smoke job).
	led := obs.NewLedger("drbw-analyze", map[string]string{"samples": sPath})
	rep, err := tl.AnalyzeTraceFile(sPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	led.AddResult(drbw.ReportLedgerResult(sPath, rep, nil))
	raw, err := led.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Ledger
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("ledger does not parse: %v", err)
	}
	if back.Schema != obs.LedgerSchema || len(back.Results) != 1 {
		t.Fatalf("ledger round-trip lost fields: %+v", back)
	}
	if back.Results[0].Samples != rep.Samples {
		t.Fatalf("ledger samples %d != report %d", back.Results[0].Samples, rep.Samples)
	}
}
