package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// declared is the metric list of the repository's BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload in the -smoke configuration, untraced and
// traced, and checks that each prints every metric BENCHMARK.json declares
// for that mode, with its unit, and nothing else, with no failed
// operation.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	b, err := newBench(options{seed: 1, seconds: time.Second, smoke: true, workDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	for _, traced := range []bool{false, true} {
		b.opts.trace = traced
		want := decl.EndToEnd
		if traced {
			want = decl.PerLayer
		}
		var results []*result
		for _, w := range allWorkloads() {
			var out bytes.Buffer
			res, err := b.runWorkload(w, &out)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			results = append(results, res)
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s (traced=%v): %d attempted, %d failed\n%s", w.name, traced, res.attempted, res.failed, out.String())
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced=%v): declared metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced=%v): %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s (traced=%v): %s = %v", w.name, traced, m.Name, got.Value)
				case !printedWithUnit(out.String(), m.Name, m.Unit):
					t.Errorf("%s (traced=%v): %s not printed with its unit:\n%s", w.name, traced, m.Name, out.String())
				}
			}
			if traced {
				checkSpanFile(t, filepath.Join(dir, "spans-"+w.name+".json"))
			}
		}
		line, err := json.Marshal(summary(results))
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
		}
	}
}

// printedWithUnit reports whether the report has a table row for name
// showing unit.
func printedWithUnit(report, name, unit string) bool {
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// checkSpanFile checks that a traced run exported a span tree stamped with
// the host, holding the operation spans.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var f struct {
		Host  hostInfo `json:"host"`
		Spans []struct {
			Name     string
			Children []json.RawMessage
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if f.Host.Go == "" || f.Host.NumCPU == 0 {
		t.Errorf("%s: host fingerprint missing: %+v", path, f.Host)
	}
	ops := 0
	for _, s := range f.Spans {
		if s.Name == spanOp && len(s.Children) > 0 {
			ops++
		}
	}
	if ops == 0 {
		t.Errorf("%s: no operation spans with layer children", path)
	}
}
