package drbw_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"drbw"
	"drbw/internal/cache"
	"drbw/internal/obs"
	"drbw/internal/pebs"
	"drbw/internal/profiledata"
)

func TestRecordAndAnalyzeTrace(t *testing.T) {
	tl := sharedTool(t)
	c := drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 51}
	td, err := tl.Record("Streamcluster", c)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Samples) == 0 || len(td.Objects) == 0 {
		t.Fatalf("recording empty: %d samples %d objects", len(td.Samples), len(td.Objects))
	}
	if td.Bench != "Streamcluster" || td.Config == "" {
		t.Errorf("recording metadata: %q %q", td.Bench, td.Config)
	}

	// Offline analysis agrees with the live pipeline.
	rep, err := tl.AnalyzeTrace(td)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Contended() {
		t.Fatal("offline analysis missed the contention")
	}
	if top := rep.TopObjects(1); len(top) == 0 || top[0] != "block" {
		t.Errorf("offline diagnosis top = %v", top)
	}
}

// TestLiveMatchesRecording pins that live detection and the analysis of
// its recording are one accumulation: the reports are identical apart from
// the case labels a recording does not carry.
func TestLiveMatchesRecording(t *testing.T) {
	tl := sharedTool(t)
	verdicts := map[bool]int{}
	for _, tc := range []struct {
		bench string
		c     drbw.Case
	}{
		{"Streamcluster", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 61}},
		{"Ferret", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 62}},
		{"AMG2006", drbw.Case{Threads: 32, Nodes: 4, Seed: 63}},
		{"Streamcluster", drbw.Case{Threads: 16, Nodes: 2, Seed: 64}},
		{"Ferret", drbw.Case{Threads: 16, Nodes: 2, Seed: 65}},
		{"AMG2006", drbw.Case{Threads: 16, Nodes: 2, Seed: 66}},
	} {
		live, err := tl.Analyze(tc.bench, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		td, err := tl.Record(tc.bench, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := tl.AnalyzeTrace(td)
		if err != nil {
			t.Fatal(err)
		}
		verdicts[live.Detected]++
		for _, r := range []*drbw.Report{live, offline} {
			r.Bench, r.Input, r.Config = "", "", ""
		}
		if !reflect.DeepEqual(live, offline) {
			t.Errorf("%s %+v: live report\n%+v\ndiffers from its recording's\n%+v", tc.bench, tc.c, live, offline)
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("cases cover only one verdict: %v", verdicts)
	}
}

// TestRecordSortedByTime pins that a recording is in time order: profiling
// hands samples over in emission order, and Record is the one consumer
// that sorts them (index block time ranges and window queries rely on it).
func TestRecordSortedByTime(t *testing.T) {
	tl := sharedTool(t)
	verdicts := map[bool]int{}
	for _, tc := range []struct {
		bench string
		c     drbw.Case
	}{
		{"Streamcluster", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 71}},
		{"Ferret", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 72}},
		{"AMG2006", drbw.Case{Threads: 16, Nodes: 2, Seed: 73}},
		{"Swaptions", drbw.Case{Threads: 16, Nodes: 2, Seed: 74}},
	} {
		live, err := tl.Analyze(tc.bench, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		verdicts[live.Detected]++
		td, err := tl.Record(tc.bench, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if len(td.Samples) == 0 {
			t.Fatalf("%s %+v: empty recording", tc.bench, tc.c)
		}
		for i := 1; i < len(td.Samples); i++ {
			if td.Samples[i].Time < td.Samples[i-1].Time {
				t.Fatalf("%s %+v: sample %d at time %g precedes sample %d at %g",
					tc.bench, tc.c, i, td.Samples[i].Time, i-1, td.Samples[i-1].Time)
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("cases cover only one verdict: %v", verdicts)
	}
}

// TestOneClassificationPerVerdict checks that a live analysis and an
// offline one each classify once: one detect.cases tick, and one
// prediction per channel that clears MinSamples.
func TestOneClassificationPerVerdict(t *testing.T) {
	tl := sharedTool(t)
	cases := obs.Default.Counter("detect.cases")
	good, rmc := obs.Default.Counter("dtree.predict.good"), obs.Default.Counter("dtree.predict.rmc")
	for _, tc := range []struct {
		bench string
		c     drbw.Case
	}{
		{"Streamcluster", drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 67}},
		{"Ferret", drbw.Case{Threads: 16, Nodes: 2, Seed: 68}},
	} {
		td, err := tl.Record(tc.bench, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		channels, err := drbw.ClassifiedChannels(tl, td)
		if err != nil {
			t.Fatal(err)
		}
		if channels == 0 {
			t.Fatalf("%s: no channel clears MinSamples", tc.bench)
		}
		for _, run := range []struct {
			name string
			fn   func() error
		}{
			{"Analyze", func() error { _, err := tl.Analyze(tc.bench, tc.c); return err }},
			{"AnalyzeTrace", func() error { _, err := tl.AnalyzeTrace(td); return err }},
		} {
			c0, p0 := cases.Value(), good.Value()+rmc.Value()
			if err := run.fn(); err != nil {
				t.Fatal(err)
			}
			if d := cases.Value() - c0; d != 1 {
				t.Errorf("%s %s: detect.cases rose by %d, want 1", tc.bench, run.name, d)
			}
			if d := good.Value() + rmc.Value() - p0; d != int64(channels) {
				t.Errorf("%s %s: %d predictions, want %d", tc.bench, run.name, d, channels)
			}
		}
	}
}

func TestTraceSaveLoadRoundTrip(t *testing.T) {
	tl := sharedTool(t)
	c := drbw.Case{Input: "native", Threads: 16, Nodes: 2, Seed: 52}
	td, err := tl.Record("Streamcluster", c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sPath := filepath.Join(dir, "samples.csv")
	oPath := filepath.Join(dir, "objects.csv")
	if err := td.Save(sPath, oPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := drbw.LoadTrace(sPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Samples) != len(td.Samples) {
		t.Fatalf("samples %d -> %d", len(td.Samples), len(loaded.Samples))
	}
	if len(loaded.Objects) != len(td.Objects) {
		t.Fatalf("objects %d -> %d", len(td.Objects), len(loaded.Objects))
	}
	if loaded.Weight != td.Weight {
		t.Errorf("weight %v -> %v across save/load", td.Weight, loaded.Weight)
	}

	orig, err := tl.AnalyzeTrace(td)
	if err != nil {
		t.Fatal(err)
	}
	again, err := tl.AnalyzeTrace(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Detected != again.Detected {
		t.Error("detection changed across trace save/load")
	}
	if len(orig.Objects) != len(again.Objects) {
		t.Errorf("diagnosis size changed: %d -> %d", len(orig.Objects), len(again.Objects))
	}
}

// TestTraceWeightRoundTrip forces the collector's reservoir to overflow so
// the recording carries Weight > 1, then checks the offline pipeline
// reproduces the live verdict: the weight survives Save/LoadTrace, and the
// reloaded trace classifies exactly like Analyze on the same case. Before
// the weight was persisted, reloaded traces silently under-counted every
// count feature by the reservoir factor.
func TestTraceWeightRoundTrip(t *testing.T) {
	tl := sharedTool(t)
	restore := drbw.SetCollectorMaxKept(tl, 200)
	defer restore()

	c := drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 53}
	td, err := tl.Record("Streamcluster", c)
	if err != nil {
		t.Fatal(err)
	}
	if td.Weight <= 1 {
		t.Fatalf("weight = %v; the 200-sample cap should overflow", td.Weight)
	}
	if len(td.Samples) > 200 {
		t.Fatalf("kept %d samples with a 200-sample cap", len(td.Samples))
	}

	dir := t.TempDir()
	sPath := filepath.Join(dir, "samples.csv")
	oPath := filepath.Join(dir, "objects.csv")
	if err := td.Save(sPath, oPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := drbw.LoadTrace(sPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Weight != td.Weight {
		t.Fatalf("weight %v -> %v across save/load", td.Weight, loaded.Weight)
	}

	live, err := tl.Analyze("Streamcluster", c)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := tl.AnalyzeTrace(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Detected != live.Detected {
		t.Errorf("offline detected=%v, live detected=%v", offline.Detected, live.Detected)
	}
	if len(offline.Channels) != len(live.Channels) {
		t.Fatalf("offline channels %v, live channels %v", offline.Channels, live.Channels)
	}
	for i := range live.Channels {
		if offline.Channels[i] != live.Channels[i] {
			t.Errorf("channel %d: offline %q, live %q", i, offline.Channels[i], live.Channels[i])
		}
	}
}

// TestSaveValidatesBeforeWrite checks a bad record never leaves a truncated
// CSV behind: validation runs before any file is created.
func TestSaveValidatesBeforeWrite(t *testing.T) {
	td := &drbw.TraceData{
		Samples: []drbw.SampleRecord{{Level: "L9"}},
		Objects: []drbw.ObjectRecord{{Name: "a", Base: 0x1000, Size: 64}},
	}
	dir := t.TempDir()
	sPath := filepath.Join(dir, "samples.csv")
	oPath := filepath.Join(dir, "objects.csv")
	if err := td.Save(sPath, oPath); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := os.Stat(sPath); !os.IsNotExist(err) {
		t.Errorf("truncated samples file left behind: %v", err)
	}
	if _, err := os.Stat(oPath); !os.IsNotExist(err) {
		t.Errorf("objects file written despite the bad recording: %v", err)
	}
}

func TestAnalyzeTraceValidation(t *testing.T) {
	tl := sharedTool(t)
	if _, err := tl.AnalyzeTrace(&drbw.TraceData{}); err == nil {
		t.Error("empty recording accepted")
	}
	bad := &drbw.TraceData{Samples: []drbw.SampleRecord{{Level: "L9", SrcNode: 0, HomeNode: 0}}}
	if _, err := tl.AnalyzeTrace(bad); err == nil {
		t.Error("unknown level accepted")
	}
	outOfRange := &drbw.TraceData{Samples: []drbw.SampleRecord{{Level: "MEM", SrcNode: 9, HomeNode: 0}}}
	if _, err := tl.AnalyzeTrace(outOfRange); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestLoadTraceMissingFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := drbw.LoadTrace(filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")); err == nil {
		t.Error("missing sample file accepted")
	}
}

// TestNonFiniteWeightRejected pins one weight rule on every edge: a NaN or
// infinite collector weight is an error when a CSV or binary recording is
// written or read, and when an in-memory recording is analyzed or saved.
func TestNonFiniteWeightRejected(t *testing.T) {
	samples := []pebs.Sample{{Time: 1, Addr: 0x10, Level: cache.MEM, Latency: 300, SrcNode: 0, HomeNode: 1}}
	var good bytes.Buffer
	if err := profiledata.WriteSamplesBinary(&good, samples, 2.5, profiledata.DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(2.5))
	at := bytes.Index(good.Bytes(), bits[:])
	if at < 0 {
		t.Fatal("binary header carries no weight")
	}
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			t.Run("csv", func(t *testing.T) {
				if err := profiledata.WriteSamples(io.Discard, samples, w); err == nil {
					t.Error("written")
				}
				in := fmt.Sprintf("#drbw-samples,v2,weight,%v\ntime,cpu,thread,addr,level,latency,write,src_node,home_node\n1,0,0,0x10,MEM,300,false,0,1\n", w)
				if _, weight, err := profiledata.ReadSamples(strings.NewReader(in)); err == nil {
					t.Errorf("read with weight %v", weight)
				}
			})
			t.Run("binary", func(t *testing.T) {
				if err := profiledata.WriteSamplesBinary(io.Discard, samples, w, profiledata.DefaultBlockSize); err == nil {
					t.Error("written")
				}
				data := bytes.Clone(good.Bytes())
				binary.LittleEndian.PutUint64(data[at:], math.Float64bits(w))
				if _, weight, err := profiledata.ReadSamples(bytes.NewReader(data)); err == nil {
					t.Errorf("read with weight %v", weight)
				}
			})
			t.Run("memory", func(t *testing.T) {
				td := &drbw.TraceData{Weight: w, Samples: []drbw.SampleRecord{{Time: 1, Addr: 0x10, Level: "MEM", Latency: 300, HomeNode: 1}}}
				if _, err := sharedTool(t).AnalyzeTrace(td); err == nil {
					t.Error("analyzed")
				}
				dir := t.TempDir()
				if err := td.SaveAs(filepath.Join(dir, "s.bin"), filepath.Join(dir, "o.csv"), drbw.FormatBinary); err == nil {
					t.Error("saved")
				}
			})
		})
	}
}

// TestNonWholeCyclesRejected pins the whole-cycle rule at every way a
// sample enters or leaves a recording: a time or latency that is not a
// whole cycle count in range is an error naming the field, from the CSV
// reader (with the line), from a hand-built binary v4 block, from
// TraceData analysis and saving, and from both writers. A binary v4 column
// holds only integers, so only the integers outside the ranges get a
// hand-built block. A binary v3 recording is rejected too.
func TestNonWholeCyclesRejected(t *testing.T) {
	var empty bytes.Buffer
	if err := profiledata.WriteSamplesBinary(&empty, nil, 1, profiledata.DefaultBlockSize); err != nil {
		t.Fatal(err)
	}
	idx, err := profiledata.ReadBlockIndex(bytes.NewReader(empty.Bytes()), int64(empty.Len()))
	if err != nil {
		t.Fatal(err)
	}
	header := empty.Bytes()[:idx.DataEnd] // drop the body terminator and the footer
	cases := []struct {
		name, field string
		v           float64
	}{
		{"NaN time", "time", math.NaN()},
		{"NaN latency", "latency", math.NaN()},
		{"+Inf time", "time", math.Inf(1)},
		{"-Inf time", "time", math.Inf(-1)},
		{"+Inf latency", "latency", math.Inf(1)},
		{"-Inf latency", "latency", math.Inf(-1)},
		{"fractional time", "time", 1000.5},
		{"fractional latency", "latency", 300.25},
		{"negative time", "time", -1},
		{"negative latency", "latency", -300},
		{"latency 2^32", "latency", 1 << 32},
		{"time past 2^53", "time", 1<<53 + 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := pebs.Sample{Time: 1000, Addr: 0x10, Level: cache.MEM, Latency: 300, HomeNode: 1}
			rec := drbw.SampleRecord{Time: 1000, Addr: 0x10, Level: "MEM", Latency: 300, HomeNode: 1}
			if c.field == "time" {
				s.Time, rec.Time = c.v, c.v
			} else {
				s.Latency, rec.Latency = c.v, c.v
			}
			named := fmt.Sprintf("%s %v ", c.field, c.v)
			want := func(what string, err error, text string) {
				t.Helper()
				if err == nil {
					t.Errorf("%s: accepted", what)
				} else if !strings.Contains(err.Error(), text) {
					t.Errorf("%s: error %q does not contain %q", what, err, text)
				}
			}

			want("WriteSamples", profiledata.WriteSamples(io.Discard, []pebs.Sample{s}, 1), named)
			want("WriteSamplesBinary", profiledata.WriteSamplesBinary(io.Discard, []pebs.Sample{s}, 1, profiledata.DefaultBlockSize), named)

			csv := fmt.Sprintf("time,cpu,thread,addr,level,latency,write,src_node,home_node\n%v,0,0,0x10,MEM,%v,false,0,1\n", s.Time, s.Latency)
			_, _, err := profiledata.ReadSamples(strings.NewReader(csv))
			want("CSV reader", err, "line 2: "+named)

			if whole := c.v == math.Trunc(c.v) && !math.IsInf(c.v, 0); whole && (c.field == "time" || c.v >= 0) {
				var payload []byte
				payload = binary.AppendUvarint(payload, uint64(int64(s.Time)<<1^int64(s.Time)>>63)) // zigzag
				payload = append(payload, 0, 0, 0x20, 4)                                            // cpu, thread, addr 0x10, level MEM
				payload = binary.AppendUvarint(payload, uint64(s.Latency))
				payload = append(payload, 0, 0, 2) // write, src 0, home 1
				data := binary.AppendUvarint(bytes.Clone(header), 1)
				data = binary.AppendUvarint(data, uint64(len(payload)))
				data = append(append(data, payload...), 0)
				_, _, err := profiledata.ReadSamples(bytes.NewReader(data))
				want("binary reader", err, fmt.Sprintf("%s %d ", c.field, int64(c.v)))
			}

			td := &drbw.TraceData{Samples: []drbw.SampleRecord{rec}}
			_, err = sharedTool(t).AnalyzeTrace(td)
			want("AnalyzeTrace", err, named)
			dir := t.TempDir()
			for _, f := range []drbw.TraceFormat{drbw.FormatCSV, drbw.FormatBinary} {
				path := filepath.Join(dir, "s."+string(f))
				want("SaveAs "+string(f), td.SaveAs(path, filepath.Join(dir, "o.csv"), f), named)
				if _, err := os.Stat(path); err == nil {
					t.Errorf("SaveAs %s left %s behind", f, path)
				}
			}
		})
	}
	t.Run("v3 magic", func(t *testing.T) {
		dir := t.TempDir()
		path, objects := filepath.Join(dir, "s.bin"), filepath.Join(dir, "o.csv")
		td := &drbw.TraceData{Samples: []drbw.SampleRecord{{Time: 1000, Addr: 0x10, Level: "MEM", Latency: 300, HomeNode: 1}}}
		if err := td.SaveAs(path, objects, drbw.FormatBinary); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, "DRBWPD3\n")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = profiledata.ReadSamples(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "re-record") {
			t.Errorf("ReadSamples: error %v, want one saying to re-record", err)
		}
		if _, err := sharedTool(t).AnalyzeTraceFile(path, objects); err == nil || !strings.Contains(err.Error(), "re-record") {
			t.Errorf("AnalyzeTraceFile: error %v, want one saying to re-record", err)
		}
	})
}
