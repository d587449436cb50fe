package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestTraceZeroAllocWhenDisabled is the tentpole contract: with no tracer
// installed, the whole span API — begin, child, attributes, end — performs
// zero heap allocations, so tracing can be compiled into every hot path
// without moving the engine's allocation gate.
func TestTraceZeroAllocWhenDisabled(t *testing.T) {
	if tr := StopTracing(); tr != nil {
		t.Fatal("a tracer was installed entering the test")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := BeginSpan("test.root")
		sp.SetInt("worker", 3)
		sp.SetStr("file", "a.samples.bin")
		sp.SetFloat("cycles", 1.5)
		cs := sp.Child("test.child")
		cs.SetInt("index", 1)
		cs.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f times per op, want 0", allocs)
	}
}

// TestTraceParentChild checks ids, parent links and attribute recording.
func TestTraceParentChild(t *testing.T) {
	tr := StartTracing()
	defer StopTracing()

	root := BeginSpan("root")
	root.SetStr("file", "x.bin")
	c1 := root.Child("child")
	c1.SetInt("index", 0)
	c1.SetInt("worker", 2)
	c1.End()
	c2 := root.Child("child")
	c2.SetInt("index", 1)
	c2.End()
	root.End()
	StopTracing()

	if n := tr.SpanCount(); n != 3 {
		t.Fatalf("SpanCount = %d, want 3", n)
	}
	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != "root" {
		t.Fatalf("tree roots = %+v, want single root", roots)
	}
	if got := roots[0].Attrs["file"]; got != "x.bin" {
		t.Fatalf("root file attr = %v", got)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(roots[0].Children))
	}
	for i, c := range roots[0].Children {
		if c.Name != "child" {
			t.Fatalf("child %d name = %q", i, c.Name)
		}
		// json numbers in Attrs are the original typed values pre-marshal.
		if got := c.Attrs["index"]; got != int64(i) {
			t.Fatalf("child %d index attr = %v (%T), want %d", i, got, got, i)
		}
	}
}

// TestTraceSpansSurviveStop: a span begun under a tracer records into that
// tracer even if it ends after StopTracing.
func TestTraceSpansSurviveStop(t *testing.T) {
	tr := StartTracing()
	sp := BeginSpan("late")
	StopTracing()
	sp.End()
	if n := tr.SpanCount(); n != 1 {
		t.Fatalf("SpanCount = %d, want 1 (in-flight span lost)", n)
	}
	if BeginSpan("after").tr != nil {
		t.Fatal("BeginSpan active after StopTracing")
	}
}

// TestChromeTraceExport validates the trace-event JSON: an envelope with
// one complete event per span, microsecond timestamps, worker-derived tids
// and parent ids in args.
func TestChromeTraceExport(t *testing.T) {
	tr := StartTracing()
	root := BeginSpan("analyze.trace_file")
	c := root.Child("case")
	c.SetInt("worker", 4)
	c.SetInt("from", 0)
	c.SetInt("to", 8)
	c.End()
	root.End()
	StopTracing()

	var buf bytes.Buffer
	if err := tr.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	var sawChild bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name != "case" {
			continue
		}
		sawChild = true
		if ev.Tid != 5 {
			t.Fatalf("worker 4 should map to tid 5, got %d", ev.Tid)
		}
		if _, ok := ev.Args["parent_id"]; !ok {
			t.Fatalf("child event lost its parent_id: %v", ev.Args)
		}
		if ev.Args["from"] != float64(0) || ev.Args["to"] != float64(8) {
			t.Fatalf("block range attrs = %v", ev.Args)
		}
	}
	if !sawChild {
		t.Fatal("no case event in export")
	}
}

// TestTreeExportDeterministic: exporting the same tracer twice is
// byte-identical, and sibling order follows (start, id).
func TestTreeExportDeterministic(t *testing.T) {
	tr := StartTracing()
	root := BeginSpan("root")
	for i := 0; i < 5; i++ {
		c := root.Child("child")
		c.SetInt("index", int64(i))
		c.End()
	}
	root.End()
	StopTracing()

	var one, two bytes.Buffer
	if err := tr.writeTreeJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := tr.writeTreeJSON(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatalf("tree exports differ:\n%s\n%s", one.String(), two.String())
	}
	var roots []*SpanTree
	if err := json.Unmarshal(one.Bytes(), &roots); err != nil {
		t.Fatalf("tree export is not valid JSON: %v", err)
	}
	if len(roots) != 1 || len(roots[0].Children) != 5 {
		t.Fatalf("tree shape wrong: %+v", roots)
	}
}

func TestParseTraceFormat(t *testing.T) {
	for in, want := range map[string]TraceExportFormat{
		"":       TraceChrome,
		"chrome": TraceChrome,
		"Tree":   TraceTree,
		" tree ": TraceTree,
	} {
		got, err := ParseTraceFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseTraceFormat(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseTraceFormat("perfetto"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}
