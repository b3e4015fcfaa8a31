package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one timed interval of the traced run: a call the benchmark made
// into a layer of the program (layer names are the repo's packages), or a
// grouping interval of the benchmark itself (layer "bench"). Times are
// nanoseconds since the tracer was created.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Run    int    `json:"run"`    // spans of one repetition or request share it
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// *tracer is the untraced run: every method is a no-op after a nil check,
// so the end-to-end numbers never pay for tracing.
type tracer struct {
	mu    sync.Mutex
	spans []spanRec
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent, run int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Run: run, Name: name, Layer: layer, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(name, layer string, parent, run int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{
		ID: id, Parent: parent, Run: run, Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (children may overlap each
// other, so the covered part is the length of their union, clipped to the
// parent).
func selfTimes(spans []spanRec) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		c := kids[s.ID]
		sort.Slice(c, func(a, b int) bool { return c[a].lo < c[b].lo })
		var covered int64
		cur := s.Start
		for _, k := range c {
			lo, hi := k.lo, k.hi
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelfMS sums self time per layer over the subtree of root (all spans
// when root < 0), in milliseconds, and returns the subtree's total with it.
func layerSelfMS(spans []spanRec, root int) (byLayer map[string]float64, totalMS float64) {
	self := selfTimes(spans)
	in := make([]bool, len(spans))
	byLayer = make(map[string]float64)
	for i, s := range spans {
		// Parents are recorded before their children, so one pass settles
		// membership.
		in[i] = root < 0 || s.ID == root || (s.Parent >= 0 && in[s.Parent])
		if in[i] {
			ms := float64(self[i]) / 1e6
			byLayer[s.Layer] += ms
			totalMS += ms
		}
	}
	return byLayer, totalMS
}

// writeJSONL writes one span per line.
func writeSpansJSONL(path string, spans []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
