package obs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestFlightRingBounded overfills the recorder and checks that it keeps
// exactly the newest flightCap events, oldest first.
func TestFlightRingBounded(t *testing.T) {
	const total = flightCap + 500
	for i := 0; i < total; i++ {
		RecordEvent(EventMetric, "fill", int64(i), 0)
	}
	events := flightEvents()
	if len(events) != flightCap {
		t.Fatalf("%d retained events, want %d", len(events), flightCap)
	}
	for i, e := range events {
		if want := int64(total - flightCap + i); e.name != "fill" || e.a != want {
			t.Fatalf("event %d = %s a=%d, want fill a=%d", i, e.name, e.a, want)
		}
	}
}

// TestFlightRecordConcurrent hammers the ring from many goroutines under
// -race; in every snapshot taken mid-stream, each producer's events must
// keep the order it recorded them in.
func TestFlightRecordConcurrent(t *testing.T) {
	const producers = 8
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				RecordEvent(EventMetric, "conc", int64(i), int64(w))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var last [producers]int64
			for _, e := range flightEvents() {
				if e.name != "conc" {
					continue
				}
				if e.a < last[e.b] {
					t.Errorf("producer %d: event %d after %d", e.b, e.a, last[e.b])
					return
				}
				last[e.b] = e.a
			}
		}
	}()
	wg.Wait()
	<-done
}

// TestFlightFailure: a nil error is a no-op, a real error is recorded with
// its text and dumped to the configured sink.
func TestFlightFailure(t *testing.T) {
	if err := FlightFailure("op", nil); err != nil {
		t.Fatalf("nil error returned %v", err)
	}

	var buf bytes.Buffer
	SetFlightSink(&buf)
	t.Cleanup(func() { SetFlightSink(nil) })

	in := errors.New("recording has no samples")
	if err := FlightFailure("analyze.trace_file", in); err != in {
		t.Fatalf("error not returned unchanged: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "analyze.trace_file failed: recording has no samples") {
		t.Fatalf("dump missing failure line:\n%s", out)
	}
	if !strings.Contains(out, "flight recorder:") {
		t.Fatalf("dump missing recorder header:\n%s", out)
	}
	if !strings.Contains(out, "error") || !strings.Contains(out, "recording has no samples") {
		t.Fatalf("dump missing the error event:\n%s", out)
	}

	// With the sink cleared, failures record but stay silent.
	SetFlightSink(nil)
	buf.Reset()
	FlightFailure("quiet.op", errors.New("x"))
	if buf.Len() != 0 {
		t.Fatalf("sink disabled but dump wrote %q", buf.String())
	}
}

// TestDumpFlightFormat spot-checks the dump's per-kind rendering.
func TestDumpFlightFormat(t *testing.T) {
	RecordEvent(EventSpan, "engine.phase", 1500, 7)
	var buf bytes.Buffer
	dumpFlight(&buf)
	if !strings.Contains(buf.String(), "engine.phase dur=1.5µs span=7") {
		t.Fatalf("span event not rendered:\n%s", lastLines(buf.String(), 5))
	}
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return fmt.Sprint(strings.Join(lines, "\n"))
}

// TestFlightDumpOnSignal re-runs itself in a child process that arms the
// SIGQUIT handler, records one event and signals itself: the child must
// exit 2 after dumping the ring and every goroutine stack to stderr.
func TestFlightDumpOnSignal(t *testing.T) {
	if os.Getenv("DRBW_FLIGHT_SIGQUIT_CHILD") == "1" {
		flightDumpOnSignal()
		RecordEvent(EventMetric, "sigquit.probe", 11, 22)
		syscall.Kill(os.Getpid(), syscall.SIGQUIT)
		time.Sleep(10 * time.Second)
		os.Exit(0) // the handler never fired
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFlightDumpOnSignal$")
	cmd.Env = append(os.Environ(), "DRBW_FLIGHT_SIGQUIT_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("child exited with %v, want status 2\n%s", err, stderr.String())
	}
	out := stderr.String()
	for _, want := range []string{"flight recorder:", "sigquit.probe a=11 b=22", "goroutine ", "[running]:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SIGQUIT dump missing %q:\n%s", want, out)
		}
	}
}
