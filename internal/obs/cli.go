package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// CLI is the observability setup every command shares. NewCLI registers
// the shared flags on the default flag set, Start arms the setup after
// flag.Parse, and Finish (or Fatal, on failure) prints the -metrics block
// and writes the trace and the ledger at exit.
type CLI struct {
	// Ledger collects the run's results and timings; nil unless
	// WithArtifacts registered -ledger. Start creates it.
	Ledger *Ledger

	tool        string
	metrics     bool
	traceOut    string
	traceFormat TraceExportFormat
	ledgerPath  string
	start       time.Time
}

// NewCLI registers -metrics. Call it before flag.Parse.
func NewCLI() *CLI {
	c := &CLI{traceFormat: TraceChrome}
	flag.BoolVar(&c.metrics, "metrics", false, "append a JSON metrics snapshot to the output")
	return c
}

// WithArtifacts also registers -trace-out, -trace-format and -ledger; tool
// names the ledger's producer.
func (c *CLI) WithArtifacts(tool string) *CLI {
	c.tool = tool
	flag.StringVar(&c.traceOut, "trace-out", "", "record a causal trace of the run and write it to this file")
	flag.Var(&c.traceFormat, "trace-format", "trace export `format`: chrome (trace-event JSON) or tree (nested spans)")
	flag.StringVar(&c.ledgerPath, "ledger", "", "write a machine-readable run ledger (JSON) to this file")
	return c
}

// Start arms the setup once the flags are parsed: progress lines and
// failure dumps go to stderr, SIGQUIT dumps the flight recorder, tracing
// starts when -trace-out is set, and the ledger records the effective
// flag set.
func (c *CLI) Start() {
	SetProgressWriter(os.Stderr)
	SetFlightSink(os.Stderr)
	flightDumpOnSignal()
	if c.traceOut != "" {
		StartTracing()
	}
	if c.tool != "" {
		cfg := map[string]string{}
		flag.VisitAll(func(f *flag.Flag) { cfg[f.Name] = f.Value.String() })
		c.Ledger = NewLedger(c.tool, cfg)
	}
	c.start = time.Now()
}

// Finish appends the metrics snapshot to stdout when -metrics is set, then
// writes the trace and the ledger when they were asked for. Call it once,
// at exit.
func (c *CLI) Finish() {
	if c.metrics {
		if b, err := json.MarshalIndent(Default.Snapshot(), "", "  "); err == nil {
			fmt.Printf("== metrics ==\n%s\n", b)
		} else {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if tr := StopTracing(); tr != nil && c.traceOut != "" {
		if err := writeTrace(tr, c.traceOut, c.traceFormat); err != nil {
			fmt.Fprintln(os.Stderr, err)
		} else {
			fmt.Fprintf(os.Stderr, "trace (%d spans) -> %s\n", tr.SpanCount(), c.traceOut)
		}
	}
	if c.ledgerPath != "" {
		c.Ledger.AddTiming("total", time.Since(c.start).Seconds())
		c.Ledger.AttachMetrics()
		if err := c.Ledger.Write(c.ledgerPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
		} else {
			fmt.Fprintf(os.Stderr, "ledger -> %s\n", c.ledgerPath)
		}
	}
}

// Fatal prints err to stderr, finishes the run as Finish does, so a failed
// run still leaves its audit trail, and exits with status 1.
func (c *CLI) Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	c.Finish()
	os.Exit(1)
}

// writeTrace writes a stopped tracer's spans to path in the given format.
func writeTrace(tr *Tracer, path string, format TraceExportFormat) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	if err := tr.Export(f, format); err != nil {
		f.Close()
		return fmt.Errorf("obs: write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return nil
}
