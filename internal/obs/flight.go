package obs

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Flight recorder: a bounded ring of the most recent span/metric/error
// events, always armed. Its producers fire once per engine run, per
// finished batch, per span end while tracing and per error, never per
// access, so one mutex guards the whole ring. Recording writes a
// fixed-size struct into a package-level array: no allocation, no
// formatting. The ring only turns into text when something goes wrong (an
// analysis error return or SIGQUIT), and each dump prints the recent
// history oldest first.

// EventKind classifies a flight-recorder event.
type EventKind uint8

// Flight event kinds.
const (
	// EventSpan is a completed trace span: A holds the duration in
	// nanoseconds, B the span id.
	EventSpan EventKind = iota
	// EventMetric is a metric milestone (engine run merged, progress
	// finished): A and B are kind-specific integers.
	EventMetric
	// EventError is a failure on an error-return path.
	EventError
)

// String names the kind for dumps.
func (k EventKind) String() string {
	switch k {
	case EventSpan:
		return "span"
	case EventMetric:
		return "metric"
	case EventError:
		return "error"
	default:
		return "event"
	}
}

// flightCap bounds the recorder: the newest flightCap events are kept,
// each new one overwriting the oldest.
const flightCap = 2048

// flightEvent is one recorded event.
type flightEvent struct {
	time time.Time
	kind EventKind
	name string
	// a and b are kind-specific payloads (see EventKind docs). detail, when
	// non-empty, carries preformatted context (error text); other events
	// leave it empty so recording never formats.
	a, b   int64
	detail string
}

// flight is the process-wide recorder: buf[n%flightCap] is the next slot,
// n counts every event ever recorded.
var flight struct {
	mu  sync.Mutex
	n   uint64
	buf [flightCap]flightEvent
}

// RecordEvent appends one event to the flight recorder. Safe for
// concurrent use from any goroutine; never allocates.
func RecordEvent(kind EventKind, name string, a, b int64) {
	recordEvent(kind, name, a, b, "")
}

func recordEvent(kind EventKind, name string, a, b int64, detail string) {
	flight.mu.Lock()
	flight.buf[flight.n%flightCap] = flightEvent{
		time: time.Now(), kind: kind, name: name, a: a, b: b, detail: detail,
	}
	flight.n++
	flight.mu.Unlock()
}

// flightEvents snapshots the retained events, oldest first.
func flightEvents() []flightEvent {
	flight.mu.Lock()
	defer flight.mu.Unlock()
	if flight.n <= flightCap {
		return append([]flightEvent(nil), flight.buf[:flight.n]...)
	}
	head := flight.n % flightCap
	return append(append(make([]flightEvent, 0, flightCap), flight.buf[head:]...), flight.buf[:head]...)
}

// dumpFlight writes the retained events to w, oldest first: one line per
// event with wall time, kind, name and payloads.
func dumpFlight(w io.Writer) {
	events := flightEvents()
	fmt.Fprintf(w, "== flight recorder: %d retained events ==\n", len(events))
	for _, e := range events {
		fmt.Fprintf(w, "%s %-6s %s", e.time.Format("15:04:05.000000"), e.kind, e.name)
		switch e.kind {
		case EventSpan:
			fmt.Fprintf(w, " dur=%s span=%d", time.Duration(e.a), e.b)
		default:
			if e.a != 0 || e.b != 0 {
				fmt.Fprintf(w, " a=%d b=%d", e.a, e.b)
			}
		}
		if e.detail != "" {
			fmt.Fprintf(w, " %s", e.detail)
		}
		fmt.Fprintln(w)
	}
}

// flightSink is where automatic dumps (error returns) go. Nil — the
// default — disables them so library consumers and tests stay quiet.
var flightSink atomic.Pointer[io.Writer]

// SetFlightSink directs automatic flight dumps to w; nil disables them.
// CLI.Start points it at stderr.
func SetFlightSink(w io.Writer) {
	if w == nil {
		flightSink.Store(nil)
		return
	}
	flightSink.Store(&w)
}

// FlightFailure records an error event and, when a sink is configured,
// dumps the recorder to it. Instrumented error-return paths call this with
// the operation name; the returned error is err unchanged, so call sites
// stay one-line.
func FlightFailure(op string, err error) error {
	if err == nil {
		return nil
	}
	recordEvent(EventError, op, 0, 0, err.Error())
	if w := flightSink.Load(); w != nil {
		fmt.Fprintf(*w, "drbw: %s failed: %v\n", op, err)
		dumpFlight(*w)
	}
	return err
}

// flightSignalOnce guards the SIGQUIT handler installation.
var flightSignalOnce sync.Once

// flightDumpOnSignal installs a SIGQUIT handler that dumps the flight
// recorder and all goroutine stacks to stderr, then exits with status 2 —
// the moral equivalent of the JVM's thread dump, with causal history
// attached. CLI.Start calls it; libraries never do (it takes over the
// process's SIGQUIT disposition).
func flightDumpOnSignal() {
	flightSignalOnce.Do(func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGQUIT)
		go func() {
			<-ch
			dumpFlight(os.Stderr)
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			os.Stderr.Write(buf[:n])
			os.Exit(2)
		}()
	})
}
