package obs

import (
	"fmt"
	"io"
	"sync"
)

// Level is a logging severity.
type Level int8

// Levels from chattiest to quietest.
const (
	// LevelDebug is per-step progress (the harness's -v output).
	LevelDebug Level = iota
	// LevelInfo is run-level milestones.
	LevelInfo
	// LevelWarn is recoverable anomalies.
	LevelWarn
	// LevelError is failures worth surfacing even in quiet runs.
	LevelError
)

// Logger is a minimal leveled logger: messages below the configured level
// are dropped. A nil Logger and a nil writer both discard everything, so
// callers never need nil checks.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
}

// NewLogger writes messages at or above level to w (nil w = discard).
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level}
}

// Enabled reports whether messages at lv would be emitted.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && l.w != nil && lv >= l.level
}

// logf emits one formatted message if lv passes the filter. Messages are
// emitted verbatim (no timestamp or level prefix): the harness writes
// "#"-prefixed progress lines interleaved with result tables, and decorating
// them would break the existing output contract.
func (l *Logger) logf(lv Level, format string, args ...any) {
	if !l.Enabled(lv) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format, args...)
}

// Debugf logs at LevelDebug.
func (l *Logger) Debugf(format string, args ...any) { l.logf(LevelDebug, format, args...) }

// Infof logs at LevelInfo.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

// Warnf logs at LevelWarn.
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, format, args...) }

// Errorf logs at LevelError.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args...) }
