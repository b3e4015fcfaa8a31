package span

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSamplingDeterminism: head-sampling is a pure function of (seed, id) —
// two tracers with the same seed agree on every ID, and the kept fraction
// lands near the configured rate.
func TestSamplingDeterminism(t *testing.T) {
	a := NewTracer(Config{SampleRate: 0.1, Seed: 42}, nil)
	b := NewTracer(Config{SampleRate: 0.1, Seed: 42}, nil)
	c := NewTracer(Config{SampleRate: 0.1, Seed: 43}, nil)
	const n = 20000
	kept, diverged := 0, 0
	for id := ID(1); id <= n; id++ {
		sa := a.Sampled(id)
		if sa != b.Sampled(id) {
			t.Fatalf("same seed diverged at id %d", id)
		}
		if sa != c.Sampled(id) {
			diverged++
		}
		if sa {
			kept++
		}
	}
	frac := float64(kept) / n
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("sample fraction %.4f far from 0.1", frac)
	}
	if diverged == 0 {
		t.Fatalf("different seeds produced identical decisions over %d ids", n)
	}
	if a.Sampled(7) != a.Sampled(7) {
		t.Fatal("Sampled not stable for one id")
	}
	// Rate edges.
	if NewTracer(Config{SampleRate: 1, Seed: 1}, nil).Sampled(123) != true {
		t.Fatal("rate 1 must sample everything")
	}
	if NewTracer(Config{Seed: 1}, nil).Sampled(123) != false {
		t.Fatal("rate 0 must sample nothing")
	}
}

// TestKeepPrecedence: error > fault > slow > head, and unkept traces export
// nothing.
func TestKeepPrecedence(t *testing.T) {
	cases := []struct {
		name    string
		rate    float64
		slow    time.Duration
		fault   string
		errKind string
		want    string // "" = not kept
	}{
		{"error wins over fault", 1, 0, "straggler", "drop", KeepError},
		{"fault wins over head", 1, 0, "straggler", "", KeepFault},
		{"slow", 0, time.Nanosecond, "", "", KeepSlow},
		{"head", 1, 0, "", "", KeepHead},
		{"unkept", 0, 0, "", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			tr := NewTracer(Config{SampleRate: tc.rate, SlowThreshold: tc.slow, Seed: 7}, w)
			x := tr.Start("predict", 0)
			x.Record("queue_wait", "", x.Epoch(), x.Epoch().Add(time.Millisecond), -1, "")
			if tc.fault != "" {
				x.Annotate(tc.fault)
			}
			if tc.slow > 0 {
				time.Sleep(time.Microsecond)
			}
			x.Finish(tc.errKind)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := obs.ReadJSONL[TraceRec](&buf)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if len(recs) != 0 {
					t.Fatalf("unkept trace exported: %+v", recs)
				}
				return
			}
			if len(recs) != 1 {
				t.Fatalf("want 1 trace, got %d", len(recs))
			}
			if recs[0].Keep != tc.want {
				t.Fatalf("keep = %q, want %q", recs[0].Keep, tc.want)
			}
			if recs[0].Err != tc.errKind {
				t.Fatalf("err = %q, want %q", recs[0].Err, tc.errKind)
			}
			if recs[0].Fault != tc.fault {
				t.Fatalf("fault = %q, want %q", recs[0].Fault, tc.fault)
			}
			st := tr.Stats()
			if st.Started != 1 || st.Kept != 1 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestRoundTrip: a recorded tree survives the Writer/ReadJSONL round trip
// with offsets, workers and faults intact.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tr := NewTracer(Config{SampleRate: 1, Seed: 1}, w)
	x := tr.Start("predict", 0xabc)
	e := x.Epoch()
	x.Record("queue_wait", "", e, e.Add(2*time.Millisecond), -1, "")
	x.Record("score", "", e.Add(2*time.Millisecond), e.Add(5*time.Millisecond), -1, "")
	x.Record("score/shard", "score", e.Add(2*time.Millisecond), e.Add(4*time.Millisecond), 3, "")
	x.Record("chaos_stall", "", e.Add(5*time.Millisecond), e.Add(9*time.Millisecond), -1, "straggler")
	x.Finish("")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !Looks(bytes.Split(buf.Bytes(), []byte("\n"))[0]) {
		t.Fatal("Looks rejected a span line")
	}
	recs, err := obs.ReadJSONL[TraceRec](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 trace, got %d", len(recs))
	}
	rec := recs[0]
	if rec.Trace != "0000000000000abc" || rec.Root != "predict" {
		t.Fatalf("header = %q %q", rec.Trace, rec.Root)
	}
	if rec.Keep != KeepFault {
		t.Fatalf("fault span must force retention, keep = %q", rec.Keep)
	}
	if len(rec.Spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(rec.Spans))
	}
	sh := rec.Spans[2]
	if sh.Name != "score/shard" || sh.Parent != "score" || sh.Worker != 3 {
		t.Fatalf("shard span = %+v", sh)
	}
	if sh.StartUS < 1900 || sh.StartUS > 2100 || sh.DurUS < 1900 || sh.DurUS > 2100 {
		t.Fatalf("shard offsets = %v %v, want ~2000", sh.StartUS, sh.DurUS)
	}
	if rec.Spans[3].Fault != "straggler" {
		t.Fatalf("stall fault lost: %+v", rec.Spans[3])
	}
	// ID round trip.
	id, ok := ParseID(rec.Trace)
	if !ok || id != 0xabc {
		t.Fatalf("ParseID(%q) = %v %v", rec.Trace, id, ok)
	}
	if _, ok := ParseID("zz"); ok {
		t.Fatal("ParseID accepted garbage")
	}
	if _, ok := ParseID(""); ok {
		t.Fatal("ParseID accepted empty")
	}
}

// TestFreelistSteadyState: unkept traces allocate nothing once the freelist
// is primed.
func TestFreelistSteadyState(t *testing.T) {
	tr := NewTracer(Config{Seed: 1}, nil) // rate 0: nothing kept
	// Prime.
	for i := 0; i < 16; i++ {
		x := tr.Start("predict", 0)
		x.Record("queue_wait", "", x.Epoch(), x.Epoch(), -1, "")
		x.Finish("")
	}
	allocs := testing.AllocsPerRun(200, func() {
		x := tr.Start("predict", 0)
		e := x.Epoch()
		x.Record("queue_wait", "", e, e, -1, "")
		x.Record("score", "", e, e, -1, "")
		x.Finish("")
	})
	if allocs > 0 {
		t.Fatalf("steady-state trace cost %v allocs/op, want 0", allocs)
	}
}

// TestMaxSpansTruncation: the per-trace cap drops further records and counts
// them.
func TestMaxSpansTruncation(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 1, Seed: 1, MaxSpans: 4}, nil)
	x := tr.Start("predict", 0)
	e := x.Epoch()
	for i := 0; i < 10; i++ {
		x.Record("s", "", e, e, -1, "")
	}
	x.Finish("")
	if got := tr.Stats().Truncated; got != 6 {
		t.Fatalf("truncated = %d, want 6", got)
	}
}

// TestNilSafety: a nil tracer and nil trace are inert.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	x := tr.Start("predict", 0)
	if x != nil {
		t.Fatal("nil tracer must hand out nil traces")
	}
	x.Record("a", "", time.Now(), time.Now(), -1, "")
	x.Annotate("f")
	x.Finish("err")
	if x.ID() != 0 {
		t.Fatal("nil trace ID")
	}
	if tr.Sampled(1) || tr.Stats() != (Stats{}) {
		t.Fatal("nil tracer must be inert")
	}
	var b strings.Builder
	tr.WriteProm(&b)
	if b.Len() != 0 {
		t.Fatal("nil tracer wrote prom text")
	}
}

// TestWriteProm: the tally renders with every keep reason labelled.
func TestWriteProm(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 1, Seed: 1}, nil)
	tr.Start("predict", 0).Finish("")
	var b strings.Builder
	tr.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"sgd_span_traces_total 1",
		`sgd_span_kept_total{reason="head"} 1`,
		`sgd_span_kept_total{reason="fault"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyze: attribution math over a synthetic trace set — the fast traces
// fully covered, the single p99-tail trace only half covered, so the tail
// attribution must report the uncovered half explicitly.
func TestAnalyze(t *testing.T) {
	var traces []TraceRec
	for i := 0; i < 99; i++ {
		traces = append(traces, TraceRec{
			Trace: "t", Root: "predict", DurUS: 100, Keep: KeepHead,
			Spans: []SpanRec{
				{Name: "queue_wait", StartUS: 0, DurUS: 40, Worker: -1},
				{Name: "score", StartUS: 40, DurUS: 60, Worker: -1},
				{Name: "score/shard", Parent: "score", StartUS: 40, DurUS: 50, Worker: 0},
			},
		})
	}
	traces = append(traces, TraceRec{
		Trace: "slow", Root: "predict", DurUS: 1000, Keep: KeepSlow,
		Spans: []SpanRec{{Name: "score", StartUS: 0, DurUS: 500, Worker: -1}},
	})
	a := Analyze(traces)
	if a.Traces != 100 || a.Spans != 298 {
		t.Fatalf("counts = %d traces %d spans", a.Traces, a.Spans)
	}
	if a.MaxDepth != 2 {
		t.Fatalf("max depth = %d, want 2", a.MaxDepth)
	}
	// 99 tied durations put the p99 at the common value, so every trace is
	// in the tail: wall 99*100+1000, attributed 99*100+500.
	if a.Tail.TailTraces != 100 || a.Tail.UnattributedUS != 500 {
		t.Fatalf("tail = %+v", a.Tail)
	}
	if want := 10400.0 / 10900.0; math.Abs(a.Tail.Attributed-want) > 1e-9 {
		t.Fatalf("attributed = %v, want %v", a.Tail.Attributed, want)
	}
	// score dominates total time: 99*60 + 500 > 99*40.
	if a.Names[0].Name != "score" {
		t.Fatalf("top span = %q, want score", a.Names[0].Name)
	}
	var sb strings.Builder
	a.WriteSummary(&sb, 10)
	out := sb.String()
	for _, want := range []string{"100 traces", "score/shard", "500.0µs unattributed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	var wb strings.Builder
	WriteWaterfall(&wb, &traces[0])
	wout := wb.String()
	if !strings.Contains(wout, "queue_wait") || !strings.Contains(wout, "worker=0") {
		t.Fatalf("waterfall missing spans:\n%s", wout)
	}
}

// TestConcurrentRecord: shards recording into one trace race-free (run with
// -race in CI).
func TestConcurrentRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tr := NewTracer(Config{SampleRate: 1, Seed: 1}, w)
	x := tr.Start("predict", 0)
	e := x.Epoch()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				x.Record("score/shard", "score", e, e.Add(time.Microsecond), g, "")
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	x.Finish("")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJSONL[TraceRec](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Spans) != 128 { // capped at MaxSpans default
		t.Fatalf("got %d traces, %d spans", len(recs), len(recs[0].Spans))
	}
}
