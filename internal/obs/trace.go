package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Causal tracing: hierarchical parent/child spans with typed attributes,
// recorded only while a Tracer is installed. The design constraint is the
// same one the metrics layer lives under — instrumentation must be free
// when nobody is looking. SpanHandle is a two-word value, Begin/Child/Set/
// End on a zero handle are branch-and-return, and no call in the disabled
// path allocates, so the engine's allocation gate holds with tracing
// compiled in everywhere (see TestTraceZeroAllocWhenDisabled).
//
// When a Tracer is installed, every ended span becomes one immutable
// record: id, parent id, name, start offset and duration relative to the
// tracer's epoch, plus its attributes. Records export two ways — Chrome
// trace-event JSON (load the file in chrome://tracing or Perfetto) and a
// nested tree sorted deterministically by (start, id) — and every span end
// also lands in the flight recorder ring.

// TraceAttr is one typed span attribute. Exactly one of the value fields
// is meaningful, selected by Kind.
type TraceAttr struct {
	Key  string
	Kind AttrKind
	Int  int64
	Flt  float64
	Str  string
}

// AttrKind discriminates TraceAttr's value field.
type AttrKind uint8

// Attribute kinds.
const (
	AttrInt AttrKind = iota
	AttrFloat
	AttrString
)

// value renders the attribute for JSON export.
func (a TraceAttr) value() any {
	switch a.Kind {
	case AttrFloat:
		return a.Flt
	case AttrString:
		return a.Str
	default:
		return a.Int
	}
}

// spanRecord is one completed span.
type spanRecord struct {
	id     uint64
	parent uint64
	name   string
	start  time.Duration // offset from the tracer epoch
	dur    time.Duration
	attrs  []TraceAttr
}

// Tracer collects one trace: a forest of spans recorded between
// StartTracing and StopTracing.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu   sync.Mutex
	done []spanRecord
}

// curTracer is the installed tracer; nil (the default) disables tracing.
var curTracer atomic.Pointer[Tracer]

// StartTracing installs a fresh tracer and returns it. Spans begun while
// it is installed are recorded; the caller exports via StopTracing.
func StartTracing() *Tracer {
	tr := &Tracer{epoch: time.Now()}
	curTracer.Store(tr)
	return tr
}

// StopTracing uninstalls the current tracer and returns it (nil when
// tracing was off). Spans still open keep their handle's tracer and record
// into it when ended, so in-flight work drains into the right trace.
func StopTracing() *Tracer {
	tr := curTracer.Swap(nil)
	return tr
}

// SpanHandle addresses one live span. The zero value is a valid no-op
// handle: every method nil-checks the tracer and returns, allocation-free,
// so instrumented code calls unconditionally.
type SpanHandle struct {
	tr  *Tracer
	rec *spanRecord
}

// BeginSpan opens a root span on the installed tracer (no-op handle when
// tracing is off).
func BeginSpan(name string) SpanHandle {
	tr := curTracer.Load()
	if tr == nil {
		return SpanHandle{}
	}
	return tr.begin(0, name)
}

func (tr *Tracer) begin(parent uint64, name string) SpanHandle {
	rec := &spanRecord{
		id:     tr.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  time.Since(tr.epoch),
	}
	return SpanHandle{tr: tr, rec: rec}
}

// Child opens a span under h. A no-op handle begets no-op children, so a
// whole call tree stays silent when its root was begun with tracing off.
func (h SpanHandle) Child(name string) SpanHandle {
	if h.tr == nil {
		return SpanHandle{}
	}
	return h.tr.begin(h.rec.id, name)
}

// SetInt attaches an integer attribute (worker id, block range bound,
// wave number). Attributes belong to the goroutine that owns the handle;
// set them before End.
func (h SpanHandle) SetInt(key string, v int64) {
	if h.tr == nil {
		return
	}
	h.rec.attrs = append(h.rec.attrs, TraceAttr{Key: key, Kind: AttrInt, Int: v})
}

// SetFloat attaches a float attribute (cycles, scores).
func (h SpanHandle) SetFloat(key string, v float64) {
	if h.tr == nil {
		return
	}
	h.rec.attrs = append(h.rec.attrs, TraceAttr{Key: key, Kind: AttrFloat, Flt: v})
}

// SetStr attaches a string attribute (trace file, candidate key).
func (h SpanHandle) SetStr(key, v string) {
	if h.tr == nil {
		return
	}
	h.rec.attrs = append(h.rec.attrs, TraceAttr{Key: key, Kind: AttrString, Str: v})
}

// End completes the span, committing its record to the tracer and one
// event to the flight recorder. Call exactly once per active handle.
func (h SpanHandle) End() {
	if h.tr == nil {
		return
	}
	h.rec.dur = time.Since(h.tr.epoch) - h.rec.start
	h.tr.mu.Lock()
	h.tr.done = append(h.tr.done, *h.rec)
	h.tr.mu.Unlock()
	RecordEvent(EventSpan, h.rec.name, h.rec.dur.Nanoseconds(), int64(h.rec.id))
}

// records returns the completed spans sorted by (start, id).
func (tr *Tracer) records() []spanRecord {
	tr.mu.Lock()
	out := make([]spanRecord, len(tr.done))
	copy(out, tr.done)
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].id < out[j].id
	})
	return out
}

// SpanCount returns the number of completed spans.
func (tr *Tracer) SpanCount() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.done)
}

// writeChromeTrace renders the completed spans as Chrome trace-event JSON
// ("X" complete events inside a traceEvents envelope), loadable in
// chrome://tracing and Perfetto. Spans with a "worker" attribute map it to
// the event's tid so worker lanes separate visually; span and parent ids
// ride in args alongside the remaining attributes.
func (tr *Tracer) writeChromeTrace(w io.Writer) error {
	type chromeEvent struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	recs := tr.records()
	events := make([]chromeEvent, 0, len(recs))
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.name,
			Cat:  "drbw",
			Ph:   "X",
			Ts:   float64(r.start) / float64(time.Microsecond),
			Dur:  float64(r.dur) / float64(time.Microsecond),
			Pid:  1,
			Args: map[string]any{"span_id": r.id},
		}
		if r.parent != 0 {
			ev.Args["parent_id"] = r.parent
		}
		for _, a := range r.attrs {
			ev.Args[a.Key] = a.value()
			if a.Key == "worker" && a.Kind == AttrInt {
				ev.Tid = a.Int + 1
			}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

// SpanTree is one node of the exported span tree.
type SpanTree struct {
	Name            string         `json:"name"`
	StartSeconds    float64        `json:"start_seconds"`
	DurationSeconds float64        `json:"duration_seconds"`
	Attrs           map[string]any `json:"attrs,omitempty"`
	Children        []*SpanTree    `json:"children,omitempty"`
}

// Tree assembles the completed spans into their parent/child forest.
// Ordering is deterministic for a given set of records: siblings sort by
// (start offset, id), and attribute keys render sorted by encoding/json.
// Spans whose parent never completed surface as roots rather than
// disappearing.
func (tr *Tracer) Tree() []*SpanTree {
	recs := tr.records()
	nodes := make(map[uint64]*SpanTree, len(recs))
	for _, r := range recs {
		n := &SpanTree{
			Name:            r.name,
			StartSeconds:    r.start.Seconds(),
			DurationSeconds: r.dur.Seconds(),
		}
		if len(r.attrs) > 0 {
			n.Attrs = make(map[string]any, len(r.attrs))
			for _, a := range r.attrs {
				n.Attrs[a.Key] = a.value()
			}
		}
		nodes[r.id] = n
	}
	var roots []*SpanTree
	for _, r := range recs { // records() order keeps siblings sorted
		if p, ok := nodes[r.parent]; ok && r.parent != 0 {
			p.Children = append(p.Children, nodes[r.id])
		} else {
			roots = append(roots, nodes[r.id])
		}
	}
	return roots
}

// writeTreeJSON renders the span forest as indented JSON.
func (tr *Tracer) writeTreeJSON(w io.Writer) error {
	b, err := json.MarshalIndent(tr.Tree(), "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// TraceExportFormat names a trace export encoding.
type TraceExportFormat string

// Supported trace exports.
const (
	// TraceChrome is Chrome trace-event JSON (chrome://tracing, Perfetto).
	TraceChrome TraceExportFormat = "chrome"
	// TraceTree is the deterministic nested span tree.
	TraceTree TraceExportFormat = "tree"
)

// String and Set make a format a flag.Value, so an unknown -trace-format
// is rejected when the flags are parsed.
func (f TraceExportFormat) String() string { return string(f) }

// Set parses s with ParseTraceFormat.
func (f *TraceExportFormat) Set(s string) (err error) {
	*f, err = ParseTraceFormat(s)
	return err
}

// ParseTraceFormat maps a CLI -trace-format value to an export format.
func ParseTraceFormat(s string) (TraceExportFormat, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "chrome":
		return TraceChrome, nil
	case "tree":
		return TraceTree, nil
	default:
		return "", fmt.Errorf("obs: unknown trace format %q (chrome, tree)", s)
	}
}

// Export writes the trace in the given format.
func (tr *Tracer) Export(w io.Writer, format TraceExportFormat) error {
	switch format {
	case TraceChrome:
		return tr.writeChromeTrace(w)
	case TraceTree:
		return tr.writeTreeJSON(w)
	default:
		return fmt.Errorf("obs: unknown trace format %q", format)
	}
}
