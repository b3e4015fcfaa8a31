// Package span is the request-level tracing and SLO layer of the serving
// path. The paper's method is to decompose time-to-convergence into phases —
// compute, update, synchronisation — and internal/obs does that per epoch;
// this package applies the same discipline per *request*: every prediction
// admitted by internal/serve grows a causal span tree (admission, queue
// wait, batch assembly, scoring, per-worker shards, chaos stalls) rooted at
// a trace ID, so a slow p99 is attributable to a named stage instead of
// disappearing into an aggregate histogram.
//
// Design constraints, mirroring the obs package:
//
//   - Allocation discipline. Trace objects are recycled through a freelist
//     and span records reuse a per-trace buffer, so the steady-state cost of
//     tracing an unkept request is a few mutex-guarded appends and zero heap
//     allocations (asserted by a test).
//   - Monotonic timing. All span boundaries are time.Time values whose
//     monotonic reading drives the arithmetic; wall-clock steps cannot tear
//     a waterfall.
//   - Head sampling + tail retention. The keep decision combines a
//     deterministic head sample (a splitmix64 hash of seed and trace ID
//     against the sample rate — replayable for a fixed seed) with tail-based
//     retention: traces that were slow, errored, or absorbed a chaos fault
//     are always exported, so the interesting requests survive a 1% rate.
//
// Kept traces stream as JSONL (one TraceRec per line) through the same
// obs.JSONLWriter as the epoch trace; cmd/sgdtrace reads them back. The companion
// SLO engine (slo.go) turns the same request outcomes into multi-window
// burn rates over log-bucketed latency histograms, surfaced at /slo and in
// Prometheus — the promotion/rollback signal the serving-fleet direction of
// the ROADMAP gates on.
package span

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ID identifies one trace, rendered as 16 lowercase hex digits (the form
// carried in the X-Trace-Id HTTP header).
type ID uint64

// String renders the ID as 16 hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the hex form; ok is false for empty or malformed input.
func ParseID(s string) (ID, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return ID(v), true
}

// Keep reasons, exported in TraceRec.Keep: why a finished trace survived.
const (
	// KeepHead: the deterministic head sample selected the trace ID.
	KeepHead = "head"
	// KeepSlow: tail retention, the trace exceeded the slow threshold.
	KeepSlow = "slow"
	// KeepFault: tail retention, a chaos fault annotated the trace.
	KeepFault = "fault"
	// KeepError: tail retention, the request finished with an error.
	KeepError = "error"
)

// SpanRec is one exported span of a trace. Offsets are microseconds from
// the trace root's start; Parent names the enclosing span ("" = a direct
// child of the root request), so the tree is reconstructible without span
// IDs. Worker is the pool worker that executed a scoring shard (-1 for
// spans that are not worker shards; the chunk a dispatching goroutine runs
// inline also reports -1).
type SpanRec struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Worker  int     `json:"worker"`
	Fault   string  `json:"fault,omitempty"`
}

// TraceRec is the JSONL schema of one kept trace.
type TraceRec struct {
	Trace string    `json:"trace"`
	Root  string    `json:"root"`
	DurUS float64   `json:"dur_us"`
	Keep  string    `json:"keep"`
	Err   string    `json:"err,omitempty"`
	Fault string    `json:"fault,omitempty"`
	Spans []SpanRec `json:"spans"`
}

// Config sizes a Tracer. The zero value samples nothing but still retains
// errored/faulted traces (tail retention is always on).
type Config struct {
	// SampleRate is the head-sampling probability in [0, 1]: the fraction
	// of trace IDs kept regardless of outcome.
	SampleRate float64
	// SlowThreshold, when positive, always keeps traces at least this slow
	// (tail-based retention of the latency tail).
	SlowThreshold time.Duration
	// Seed drives the deterministic head-sampling hash; a fixed seed makes
	// keep decisions a pure function of the trace ID.
	Seed int64
	// MaxSpans caps the spans recorded per trace (further Records are
	// counted as truncated and dropped). Default 128.
	MaxSpans int
}

// Stats is a Tracer's lifetime tally, embedded in sgdload reports and
// logged by sgdserve at shutdown.
type Stats struct {
	Started   int64 `json:"started"`
	Kept      int64 `json:"kept"`
	KeptHead  int64 `json:"kept_head"`
	KeptSlow  int64 `json:"kept_slow"`
	KeptFault int64 `json:"kept_fault"`
	KeptError int64 `json:"kept_error"`
	Truncated int64 `json:"truncated_spans,omitempty"`
}

// Tracer hands out Traces, decides retention and streams kept traces to a
// Writer. All methods are safe for concurrent use and nil-receiver safe, so
// an uninstrumented serving core pays only nil checks.
type Tracer struct {
	cfg Config
	w   *Writer

	next      atomic.Uint64
	free      chan *Trace
	started   atomic.Int64
	keptHead  atomic.Int64
	keptSlow  atomic.Int64
	keptFault atomic.Int64
	keptError atomic.Int64
	truncated atomic.Int64
}

// NewTracer builds a tracer exporting kept traces to w (nil w: decisions
// and stats only, nothing exported).
func NewTracer(cfg Config, w *Writer) *Tracer {
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 128
	}
	return &Tracer{cfg: cfg, w: w, free: make(chan *Trace, 1024)}
}

// sampleHash is splitmix64 over (seed, id): the per-decision discipline of
// internal/chaos, reused so sampling is independent of request order.
func sampleHash(seed int64, id ID) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)*0xda942042e4dd58b5 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sampled reports the head-sampling decision for a trace ID — deterministic
// for a fixed Config.Seed.
func (t *Tracer) Sampled(id ID) bool {
	if t == nil || t.cfg.SampleRate <= 0 {
		return false
	}
	if t.cfg.SampleRate >= 1 {
		return true
	}
	return float64(sampleHash(t.cfg.Seed, id)>>11)/(1<<53) < t.cfg.SampleRate
}

// Stats returns the lifetime tally.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:   t.started.Load(),
		Kept:      t.keptHead.Load() + t.keptSlow.Load() + t.keptFault.Load() + t.keptError.Load(),
		KeptHead:  t.keptHead.Load(),
		KeptSlow:  t.keptSlow.Load(),
		KeptFault: t.keptFault.Load(),
		KeptError: t.keptError.Load(),
		Truncated: t.truncated.Load(),
	}
}

// Start opens a trace rooted at root. A zero id draws the next internal ID;
// a nonzero id propagates a caller-supplied one (the X-Trace-Id path).
// Returns nil (a valid no-op trace) when the tracer itself is nil.
func (t *Tracer) Start(root string, id ID) *Trace {
	if t == nil {
		return nil
	}
	if id == 0 {
		id = ID(t.next.Add(1))
	}
	t.started.Add(1)
	var tr *Trace
	select {
	case tr = <-t.free:
	default:
		tr = &Trace{}
	}
	tr.t = t
	tr.id = id
	tr.root = root
	tr.start = time.Now()
	tr.sampled = t.Sampled(id)
	tr.fault = ""
	tr.spans = tr.spans[:0]
	return tr
}

// Trace is one live request's span collector. A nil *Trace is valid and
// makes every method a no-op. Record and Annotate are safe for concurrent
// use (pool worker shards record concurrently); Finish must be called
// exactly once, after which the trace must not be touched (it returns to
// the freelist).
type Trace struct {
	t       *Tracer
	id      ID
	root    string
	start   time.Time
	sampled bool

	mu    sync.Mutex
	fault string
	spans []SpanRec
}

// ID returns the trace ID (0 for a nil trace).
func (tr *Trace) ID() ID {
	if tr == nil {
		return 0
	}
	return tr.id
}

// Epoch returns the trace root's start time, the zero point of all span
// offsets.
func (tr *Trace) Epoch() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.start
}

// Annotate marks the trace as having absorbed a chaos fault, forcing tail
// retention; the last annotation wins the trace-level field.
func (tr *Trace) Annotate(fault string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.fault = fault
	tr.mu.Unlock()
}

// Record appends one completed span: [start, end) under the named parent
// ("" = direct child of the root), executed by the given pool worker (-1
// when not a worker shard), optionally annotated with the fault it
// absorbed. Negative offsets (clock skew across goroutines' monotonic
// stamps cannot happen; misuse can) clamp to zero.
func (tr *Trace) Record(name, parent string, start, end time.Time, worker int, fault string) {
	if tr == nil {
		return
	}
	off := start.Sub(tr.start)
	if off < 0 {
		off = 0
	}
	dur := end.Sub(start)
	if dur < 0 {
		dur = 0
	}
	tr.mu.Lock()
	if len(tr.spans) >= tr.t.cfg.MaxSpans {
		tr.mu.Unlock()
		tr.t.truncated.Add(1)
		return
	}
	tr.spans = append(tr.spans, SpanRec{
		Name:    name,
		Parent:  parent,
		StartUS: float64(off) / 1e3,
		DurUS:   float64(dur) / 1e3,
		Worker:  worker,
		Fault:   fault,
	})
	if fault != "" && tr.fault == "" {
		tr.fault = fault
	}
	tr.mu.Unlock()
}

// Finish closes the trace with an error kind ("" = success), decides
// retention — head sample, slow tail, fault, or error — exports a kept
// trace, and recycles the object. The trace must not be used afterwards.
func (tr *Trace) Finish(errKind string) {
	if tr == nil {
		return
	}
	t := tr.t
	dur := time.Since(tr.start)
	keep := ""
	switch {
	case errKind != "":
		keep = KeepError
		t.keptError.Add(1)
	case tr.fault != "":
		keep = KeepFault
		t.keptFault.Add(1)
	case t.cfg.SlowThreshold > 0 && dur >= t.cfg.SlowThreshold:
		keep = KeepSlow
		t.keptSlow.Add(1)
	case tr.sampled:
		keep = KeepHead
		t.keptHead.Add(1)
	}
	if keep != "" && t.w != nil {
		t.w.Write(&TraceRec{
			Trace: tr.id.String(),
			Root:  tr.root,
			DurUS: float64(dur) / 1e3,
			Keep:  keep,
			Err:   errKind,
			Fault: tr.fault,
			Spans: tr.spans,
		})
	}
	tr.t = nil
	select {
	case t.free <- tr:
	default:
	}
}

// WriteProm renders the tracer tally as Prometheus text under sgd_span_.
func (t *Tracer) WriteProm(w io.Writer) {
	if t == nil {
		return
	}
	s := t.Stats()
	obs.PromFamily(w, "sgd_span_traces_total", "counter", "Traces started on the serve path.")
	obs.PromSample(w, "sgd_span_traces_total", s.Started)
	obs.PromFamily(w, "sgd_span_kept_total", "counter", "Traces retained, by keep reason.")
	for _, kv := range []struct {
		reason string
		n      int64
	}{{KeepHead, s.KeptHead}, {KeepSlow, s.KeptSlow}, {KeepFault, s.KeptFault}, {KeepError, s.KeptError}} {
		obs.PromSample(w, "sgd_span_kept_total", kv.n, "reason", kv.reason)
	}
	if s.Truncated > 0 {
		obs.PromFamily(w, "sgd_span_truncated_spans_total", "counter", "Spans dropped by the per-trace cap.")
		obs.PromSample(w, "sgd_span_truncated_spans_total", s.Truncated)
	}
}
