package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/span"
)

// writeTrace records two runs (one sync, one async engine) through the real
// trace writer, so the test exercises the same JSONL schema the harness emits.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tw, err := obs.CreateJSONL[obs.Event](path)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"sync/cpu-par(8)", "async/gpu"} {
		rec := obs.TraceRun(tw, engine, "w8a")
		for ep := 0; ep < 3; ep++ {
			rec.Phase(obs.PhaseGradient, 0.7)
			rec.Phase(obs.PhaseBarrier, 0.3)
			rec.Add(obs.CounterWorkerUpdates, 100)
			rec.EndEpoch(1.0)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSummary(t *testing.T) {
	path := writeTrace(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "6 events read, 6 after filters, 2 runs") {
		t.Errorf("unexpected header:\n%s", out)
	}
	if !strings.Contains(out, "async/gpu") {
		t.Errorf("summary missing engine table:\n%s", out)
	}
}

func TestRunEngineFilterWordBoundary(t *testing.T) {
	path := writeTrace(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-engine", "sync", path}, strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	// "sync" must not match "async": exactly one run survives the filter.
	if !strings.Contains(stdout.String(), "3 after filters, 1 runs") {
		t.Errorf("word-boundary filter broken:\n%s", stdout.String())
	}
}

func TestRunStdinProm(t *testing.T) {
	raw, err := os.ReadFile(writeTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-prom", "-"}, bytes.NewReader(raw), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "sgd_") {
		t.Errorf("prom snapshot has no sgd_ metrics:\n%s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/trace.jsonl"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// writeSpanFile lays down a minimal span JSONL file for the -spans mode.
func writeSpanFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	lines := `{"trace":"0000000000000001","root":"predict","dur_us":1000,"keep":"head","spans":[{"name":"queue_wait","start_us":0,"dur_us":400,"worker":-1},{"name":"score","start_us":400,"dur_us":600,"worker":-1},{"name":"score/shard","parent":"score","start_us":400,"dur_us":500,"worker":2}]}
{"trace":"0000000000000002","root":"predict","dur_us":5000,"keep":"slow","spans":[{"name":"score","start_us":0,"dur_us":5000,"worker":-1}]}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSpansMode(t *testing.T) {
	path := writeSpanFile(t)
	for _, args := range [][]string{
		{"-spans", path},
		{path}, // auto-detected by sniffing the first line
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, stderr.String())
		}
		out := stdout.String()
		for _, want := range []string{"2 traces", "max depth 2", "score/shard", "p99 tail attribution"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v: output missing %q:\n%s", args, want, out)
			}
		}
	}
}

func TestRunSpansStdin(t *testing.T) {
	raw, err := os.ReadFile(writeSpanFile(t))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spans", "-"}, bytes.NewReader(raw), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "2 traces") {
		t.Errorf("stdin span summary wrong:\n%s", stdout.String())
	}
}

// writeSpans lays down a controlled trace set in the span JSONL schema: 9
// fast fully-attributed requests plus one slow chaos-faulted one whose spans
// cover only 80% of its wall time, so the attribution gate has something to
// fail on.
func writeSpans(t *testing.T) string {
	t.Helper()
	var traces []span.TraceRec
	for i := 0; i < 9; i++ {
		traces = append(traces, span.TraceRec{
			Trace: fmt.Sprintf("%016x", i+1), Root: "predict", DurUS: 1000, Keep: span.KeepHead,
			Spans: []span.SpanRec{
				{Name: "queue_wait", StartUS: 0, DurUS: 400, Worker: -1},
				{Name: "score", StartUS: 400, DurUS: 600, Worker: -1},
				{Name: "score/shard", Parent: "score", StartUS: 400, DurUS: 500, Worker: i % 4},
			},
		})
	}
	traces = append(traces, span.TraceRec{
		Trace: "00000000000000ff", Root: "predict", DurUS: 50000,
		Keep: span.KeepFault, Fault: "straggler",
		Spans: []span.SpanRec{
			{Name: "score", StartUS: 0, DurUS: 3000, Worker: -1},
			{Name: "chaos_stall", StartUS: 3000, DurUS: 37000, Worker: -1, Fault: "straggler"},
		},
	})
	var buf bytes.Buffer
	for _, tr := range traces {
		line, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSummaryAndWaterfall(t *testing.T) {
	path := writeSpans(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-worst", "2", path}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"10 traces",
		"score/shard",
		"p99 tail attribution",
		"worst 2 traces:",
		"fault=straggler",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONAndAttributionGate(t *testing.T) {
	path := writeSpans(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", path}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var a span.Analysis
	if err := json.Unmarshal(stdout.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if a.Traces != 10 || a.MaxDepth != 2 {
		t.Fatalf("analysis = %d traces, depth %d", a.Traces, a.MaxDepth)
	}

	// The gate passes at a floor the data meets and fails at one it cannot:
	// the slow trace's spans cover well under 100% of its wall time.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-min-attrib", "0.999", path}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Fatalf("unattributable tail passed the 0.999 gate (exit %d)", code)
	}
	if !strings.Contains(stderr.String(), "below floor") {
		t.Errorf("gate failure not reported:\n%s", stderr.String())
	}
}

func TestRunKeepFilterAndErrors(t *testing.T) {
	path := writeSpans(t)
	var stdout, stderr bytes.Buffer
	// One trace was kept by fault; nothing errored.
	if code := run([]string{"-keep", "fault", path}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("fault filter: exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "1 traces") {
		t.Errorf("fault filter kept wrong count:\n%s", stdout.String())
	}
	if code := run([]string{"-keep", "error", path}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("empty filter result: exit %d, want 1", code)
	}
	if code := run(nil, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/spans.jsonl"}, strings.NewReader(""), &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}
