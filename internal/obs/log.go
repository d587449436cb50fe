package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// logger is the package-wide structured logger. The default writes
// warnings and errors to stderr as text, so library consumers and tests
// see nothing unless something is wrong; CLIs lower the level with
// ConfigureLogging.
var logger atomic.Pointer[slog.Logger]

func init() {
	logger.Store(newTextLogger(os.Stderr, slog.LevelWarn))
}

func newTextLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// Logger returns the current structured logger. Instrumented layers log
// through it with component attributes, e.g.
// obs.Logger().Info("msg", "component", "engine", ...).
func Logger() *slog.Logger { return logger.Load() }

// ParseLevel maps a CLI level name to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning", "":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (debug, info, warn, error)", s)
	}
}

// ConfigureLogging installs a text handler on w at the named level — the
// one-call setup the CLIs use for their -log flag.
func ConfigureLogging(w io.Writer, level string) error {
	lv, err := ParseLevel(level)
	if err != nil {
		return err
	}
	logger.Store(newTextLogger(w, lv))
	return nil
}
