package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/span"
)

// leakCheck snapshots the goroutine count and returns an assertion that the
// count returned to the baseline, retrying for up to half a second so
// goroutines mid-teardown (dispatcher drain, trainer exit) get to park. The
// shared default pool is primed first: its long-lived workers are part of
// every baseline, not a leak.
func leakCheck(t *testing.T) func() {
	t.Helper()
	pool.Default()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		var after int
		for i := 0; i < 100; i++ {
			after = runtime.NumGoroutine()
			if after <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// traceCore builds a fully instrumented core: sample-everything tracer
// exporting into buf, plus an SLO engine with short windows.
func traceCore(t *testing.T, buf *bytes.Buffer, cfg Config) (*Core, *span.Tracer, *span.Writer) {
	t.Helper()
	w := span.NewWriter(buf)
	tracer := span.NewTracer(span.Config{SampleRate: 1, Seed: 11}, w)
	objs, err := span.ParseObjectives("latency<=1s@99,errors@99.9")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tracer = tracer
	cfg.SLO = span.NewSLO(span.SLOConfig{Objectives: objs, FastWindow: time.Minute})
	return NewCore(model.NewLR(2), lrStore([]float64{1, 1}), cfg), tracer, w
}

// TestPredictEmitsSpanChain: a traced request exports the full contiguous
// attribution chain and the span offsets tile the trace wall time.
func TestPredictEmitsSpanChain(t *testing.T) {
	var buf bytes.Buffer
	c, tracer, w := traceCore(t, &buf, Config{MaxBatch: 4, MaxDelay: 200 * time.Microsecond})
	res, err := c.PredictTraced([]int32{0}, []float64{1}, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Trace != "000000000000beef" {
		t.Fatalf("result trace = %q", res.Trace)
	}
	if st := tracer.Stats(); st.Started != 1 || st.Kept != 1 {
		t.Fatalf("tracer stats = %+v", st)
	}
	recs, err := obs.ReadJSONL[span.TraceRec](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 exported trace, got %d", len(recs))
	}
	rec := recs[0]
	names := map[string]span.SpanRec{}
	for _, s := range rec.Spans {
		names[s.Name] = s
	}
	for _, want := range []string{"admission", "queue_wait", "batch_assembly", "score", "finalize", "resume", "score/shard"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("missing span %q in %v", want, rec.Spans)
		}
	}
	if names["score/shard"].Parent != "score" {
		t.Fatalf("shard parent = %q", names["score/shard"].Parent)
	}
	// The top-level chain must cover (nearly) the whole trace: each span
	// starts where the previous ended, so summed top-level durations ≈ the
	// trace duration.
	var top float64
	for _, s := range rec.Spans {
		if s.Parent == "" {
			top += s.DurUS
		}
	}
	if top < 0.95*rec.DurUS {
		t.Fatalf("top-level spans cover %.1f of %.1f µs (<95%%)", top, rec.DurUS)
	}
	// SLO saw the request and stays quiet.
	rep := c.SLO().Snapshot()
	if rep.Alerting {
		t.Fatalf("healthy run alerting: %+v", rep)
	}
	if rep.Objectives[0].FastTotal != 1 {
		t.Fatalf("SLO window total = %d, want 1", rep.Objectives[0].FastTotal)
	}
}

// TestChaosFaultAnnotatesSpans: injected drops mark the absorbing span and
// force retention; the SLO burn rate sees the failures.
func TestChaosFaultAnnotatesSpans(t *testing.T) {
	var buf bytes.Buffer
	c, _, w := traceCore(t, &buf, Config{
		MaxBatch: 1, Plan: chaos.Plan{DropFrac: 1}, ChaosSeed: 7,
	})
	for i := 0; i < 3; i++ {
		if _, err := c.PredictTraced([]int32{0}, []float64{1}, 0); err != ErrInjectedDrop {
			t.Fatalf("err = %v, want ErrInjectedDrop", err)
		}
	}
	slo := c.SLO()
	c.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJSONL[span.TraceRec](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("want 3 traces, got %d", len(recs))
	}
	for _, rec := range recs {
		if rec.Keep != span.KeepError || rec.Err != "injected_drop" || rec.Fault != "drop" {
			t.Fatalf("dropped trace = keep=%q err=%q fault=%q", rec.Keep, rec.Err, rec.Fault)
		}
		found := false
		for _, s := range rec.Spans {
			if s.Name == "finalize" && s.Fault == "drop" {
				found = true
			}
		}
		if !found {
			t.Fatalf("no finalize span carries the drop fault: %v", rec.Spans)
		}
	}
	if rep := slo.Snapshot(); rep.Objectives[1].FastBad != 3 {
		t.Fatalf("SLO errors = %d, want 3", rep.Objectives[1].FastBad)
	}
}

// TestHTTPTracePropagation: X-Trace-Id round-trips through the handler, /slo
// answers, and /metrics carries the span, SLO and cumulative histogram
// families.
func TestHTTPTracePropagation(t *testing.T) {
	var buf bytes.Buffer
	c, _, _ := traceCore(t, &buf, Config{MaxBatch: 4, MaxDelay: 100 * time.Microsecond})
	defer c.Close()
	h := NewServer(c).Handler()

	req := httptest.NewRequest("POST", "/predict", strings.NewReader(`{"indices":[0],"values":[1]}`))
	req.Header.Set("X-Trace-Id", "00000000000000ff")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Fatalf("predict status %d: %s", rw.Code, rw.Body)
	}
	if got := rw.Header().Get("X-Trace-Id"); got != "00000000000000ff" {
		t.Fatalf("response X-Trace-Id = %q", got)
	}
	var pred struct {
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &pred); err != nil || pred.Trace != "00000000000000ff" {
		t.Fatalf("body trace = %q (err %v)", pred.Trace, err)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/slo", nil))
	if rw.Code != 200 {
		t.Fatalf("/slo status %d", rw.Code)
	}
	var rep span.Report
	if err := json.Unmarshal(rw.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 2 || rep.Alerting {
		t.Fatalf("/slo report = %+v", rep)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	body := rw.Body.String()
	for _, want := range []string{
		"sgd_span_traces_total",
		`sgd_span_kept_total{reason="head"}`,
		"sgd_slo_burn_rate{objective=",
		"sgd_serve_request_duration_seconds_bucket{le=",
		"sgd_serve_request_duration_seconds_count",
		`sgd_serve_batch_size_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestUntracedCoreUnchanged: a core without tracer/SLO serves exactly as
// before — no trace field, /slo answers with an empty report.
func TestUntracedCoreUnchanged(t *testing.T) {
	c := NewCore(model.NewLR(2), lrStore([]float64{1, 1}), Config{MaxBatch: 1})
	defer c.Close()
	res, err := c.Predict([]int32{0}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != "" {
		t.Fatalf("untraced result has trace %q", res.Trace)
	}
	rw := httptest.NewRecorder()
	NewServer(c).Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/slo", nil))
	if rw.Code != 200 {
		t.Fatalf("/slo status %d", rw.Code)
	}
}
