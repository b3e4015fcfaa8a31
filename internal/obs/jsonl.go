package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONLWriter streams records of one type as JSON Lines, one record per
// line. It is the one codec behind both trace formats: epoch events
// (TraceWriter) and request span traces (span.Writer). Safe for concurrent
// use by the many recorders or requester goroutines finishing records.
type JSONLWriter[T any] struct {
	mu  sync.Mutex
	buf *bufio.Writer
	cl  io.Closer
	err error
}

// NewJSONLWriter wraps an io.Writer as a record sink; Close also closes w
// when it is an io.Closer.
func NewJSONLWriter[T any](w io.Writer) *JSONLWriter[T] {
	jw := &JSONLWriter[T]{buf: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		jw.cl = c
	}
	return jw
}

// CreateJSONL creates (truncating) a JSONL file at path.
func CreateJSONL[T any](path string) (*JSONLWriter[T], error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create trace: %w", err)
	}
	return NewJSONLWriter[T](f), nil
}

// Write emits one record line; the first error is kept for Close.
func (w *JSONLWriter[T]) Write(rec *T) {
	line, err := json.Marshal(rec)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.buf.Write(append(line, '\n')); err != nil && w.err == nil {
		w.err = err
	}
}

// Close flushes buffered records and closes the underlying file, reporting
// the first write error encountered.
func (w *JSONLWriter[T]) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.buf.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.cl != nil {
		if err := w.cl.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.cl = nil
	}
	return w.err
}

// ReadJSONL parses a JSONL stream of records. Blank lines are skipped; a
// malformed line aborts with an error naming its line number.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []T
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: trace read: %w", err)
	}
	return out, nil
}

// ReadJSONLFile parses a JSONL file of records.
func ReadJSONLFile[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL[T](f)
}
