package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/race"
	"repro/internal/serve"
	"repro/internal/span"
)

// startTestServer serves a tiny LR through the real serve stack, optionally
// instrumented (tracer + SLO) and faulted via mutate.
func startTestServer(t *testing.T, mutate ...func(*serve.Config)) string {
	t.Helper()
	store := serve.NewStore()
	w := make([]float64, 54)
	for i := range w {
		w[i] = 0.01 * float64(i)
	}
	store.Publish(&serve.Snapshot{Model: "lr", Dim: 54, Weights: w})
	cfg := serve.Config{MaxBatch: 16, MaxDelay: time.Millisecond}
	for _, f := range mutate {
		f(&cfg)
	}
	c := serve.NewCore(model.NewLR(54), store, cfg)
	srv := httptest.NewServer(serve.NewServer(c).Handler())
	t.Cleanup(func() { srv.Close(); c.Close() })
	return srv.URL
}

// emulateTrainerUnderRace runs the test at one P under -race: the 4-thread
// Hogwild trainer then takes its deterministic emulation, as on a one-core
// host, instead of racing real threads on one shared model — racy by
// design. Without -race the test runs unchanged.
func emulateTrainerUnderRace(t *testing.T) {
	if !race.Enabled {
		return
	}
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// instrumented wires a sample-everything tracer (no export) and an SLO with
// a window short enough for a sub-second load run.
func instrumented(t *testing.T) func(*serve.Config) {
	t.Helper()
	objs, err := span.ParseObjectives("errors@99.9")
	if err != nil {
		t.Fatal(err)
	}
	return func(cfg *serve.Config) {
		cfg.Tracer = span.NewTracer(span.Config{SampleRate: 1, Seed: 5}, nil)
		cfg.SLO = span.NewSLO(span.SLOConfig{Objectives: objs, FastWindow: 2 * time.Second})
	}
}

func TestRunClosedLoopHTTP(t *testing.T) {
	url := startTestServer(t)
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-target", url, "-conc", "4", "-duration", "300ms",
		"-maxn", "300", "-out", out, "-check",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if !rep.CheckedOK || len(rep.Runs) != 1 || rep.Runs[0].OK == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Runs[0].Mode != "closed" {
		t.Fatalf("mode = %q, want closed", rep.Runs[0].Mode)
	}
	if rep.Server == nil || rep.Server.Model != "lr" {
		t.Fatalf("report lacks server identity: %+v", rep.Server)
	}
}

func TestRunOpenLoopHTTP(t *testing.T) {
	url := startTestServer(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-target", url, "-rate", "200", "-duration", "300ms",
		"-maxn", "300", "-out", "-",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout.String())
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Mode != "open" || rep.Runs[0].OK == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// checkPairedRuns asserts an in-process A/B listed every window, in the
// alternating order a b, b a, a b.
func checkPairedRuns(t *testing.T, runs []runReport, a, b string) {
	t.Helper()
	want := []string{a, b, b, a, a, b}
	if len(runs) != len(want) {
		t.Fatalf("A/B listed %d windows, want %d: %+v", len(runs), len(want), runs)
	}
	for i, r := range runs {
		if r.Mode != want[i] {
			t.Fatalf("window %d is %q, want %q (order %v)", i, r.Mode, want[i], want)
		}
	}
}

func TestRunInprocReportsSpeedupAndFingerprint(t *testing.T) {
	emulateTrainerUnderRace(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-inproc", "-duration", "150ms", "-conc", "8",
		"-maxn", "300", "-out", "-", "-check",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v", err)
	}
	if rep.Speedup <= 0 {
		t.Fatalf("A/B report = %+v", rep)
	}
	checkPairedRuns(t, rep.Runs, "inproc-unbatched", "inproc-batched")
	if rep.Server == nil || rep.Server.FingerprintKey == "" {
		t.Fatal("in-process report lacks the training fingerprint")
	}
	if rep.Runs[1].AvgBatch <= rep.Runs[0].AvgBatch {
		t.Fatalf("batched avg batch %.2f should exceed unbatched %.2f",
			rep.Runs[1].AvgBatch, rep.Runs[0].AvgBatch)
	}
}

// TestRunQuantABReport: the quantised-vs-float A/B produces two phases, a
// populated accuracy probe with zero bound violations, and a deterministic
// delta checksum (same seed + dataset => same quantiser output).
func TestRunQuantABReport(t *testing.T) {
	emulateTrainerUnderRace(t)
	runOnce := func() report {
		t.Helper()
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-quant-ab", "-duration", "150ms", "-conc", "8",
			"-maxn", "300", "-out", "-", "-check", "-expect-speedup", "0.2",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
		}
		var rep report
		if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
			t.Fatalf("stdout is not a JSON report: %v", err)
		}
		return rep
	}
	rep := runOnce()
	checkPairedRuns(t, rep.Runs, "inproc-float", "inproc-quant")
	q := rep.Quant
	if q == nil {
		t.Fatal("report lacks the quant_ab section")
	}
	if q.Speedup <= 0 || q.ProbeRows != 300 {
		t.Fatalf("quant_ab = %+v", q)
	}
	if q.BoundViolations != 0 {
		t.Errorf("%d analytic bound violations", q.BoundViolations)
	}
	if q.MaxAbsDelta <= 0 || q.MaxAbsDelta < q.MeanAbsDelta {
		t.Errorf("delta stats inconsistent: max %g, mean %g", q.MaxAbsDelta, q.MeanAbsDelta)
	}
	if len(q.DeltaChecksum) != 16 {
		t.Errorf("delta checksum %q is not 16 hex digits", q.DeltaChecksum)
	}
	if !rep.Server.Quantized {
		t.Error("server identity does not record the quantised mode")
	}
	if again := runOnce(); again.Quant.DeltaChecksum != q.DeltaChecksum {
		t.Errorf("delta checksum not deterministic: %s vs %s",
			again.Quant.DeltaChecksum, q.DeltaChecksum)
	}
}

// TestRunQuantABExpectSpeedupFails: an unmeetable -expect-speedup must fail
// the check and exit 1 — the CI assertion actually bites.
func TestRunQuantABExpectSpeedupFails(t *testing.T) {
	emulateTrainerUnderRace(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-quant-ab", "-duration", "100ms", "-conc", "4",
		"-maxn", "200", "-out", "-", "-check", "-expect-speedup", "1000",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "below required") {
		t.Errorf("stderr does not name the failed speedup gate:\n%s", stderr.String())
	}
}

// TestRunTracedServerQuietSLO: against an instrumented healthy server, every
// response carries our trace ID, the report embeds a quiet /slo evaluation,
// and -expect-alert quiet passes.
func TestRunTracedServerQuietSLO(t *testing.T) {
	url := startTestServer(t, instrumented(t))
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-target", url, "-conc", "4", "-duration", "300ms",
		"-maxn", "300", "-out", "-", "-check", "-expect-alert", "quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	// Every successful response must echo our ID (rejected requests bounce
	// at admission, before the batcher stamps the trace).
	r := rep.Runs[0]
	if r.Traced < r.OK || r.Traced == 0 {
		t.Fatalf("traced %d of %d ok requests", r.Traced, r.OK)
	}
	if rep.SLO == nil || len(rep.SLO.Objectives) != 1 || rep.SLO.Alerting {
		t.Fatalf("report SLO = %+v", rep.SLO)
	}
	if rep.SLO.Objectives[0].FastTotal == 0 {
		t.Fatal("server SLO saw no requests")
	}
}

// TestRunExpectAlertFire: a server dropping every request burns the error
// budget, so -expect-alert fire passes and quiet fails.
func TestRunExpectAlertFire(t *testing.T) {
	url := startTestServer(t, instrumented(t), func(cfg *serve.Config) {
		cfg.Plan = chaos.Plan{DropFrac: 1}
		cfg.ChaosSeed = 3
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-target", url, "-conc", "2", "-duration", "200ms",
		"-maxn", "300", "-out", os.DevNull, "-expect-alert", "fire",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("alerting server: exit %d, stderr:\n%s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	code = run([]string{
		"-target", url, "-conc", "2", "-duration", "200ms",
		"-maxn", "300", "-out", os.DevNull, "-expect-alert", "quiet",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("expected quiet against alerting server: exit %d, want 1", code)
	}
}

func TestRunTargetDown(t *testing.T) {
	// A refused connection must fail cleanly, not hang or panic.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-target", dead.URL, "-duration", "100ms", "-maxn", "300"}, &stdout, &stderr); code != 1 {
		t.Fatalf("dead target: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "nonesuch"},
		{"-bogus"},
		{"-expect-alert", "maybe"},
		{"-inproc", "-expect-alert", "quiet"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

// pairedAB alternates which side runs first and gates on the median
// per-pair ratio, so one slow window on either side moves the result by at
// most one rank.
func TestPairedABAlternatesAndTakesMedian(t *testing.T) {
	var order []string
	base, treat := []float64{5, 2, 4}, []float64{10, 10, 10}
	runs, ratios, median := pairedAB(func(isTreat bool) runReport {
		side, rps := "base", &base
		if isTreat {
			side, rps = "treat", &treat
		}
		order = append(order, side)
		r := runReport{Mode: side, ThroughputRPS: (*rps)[0]}
		*rps = (*rps)[1:]
		return r
	})
	if got := strings.Join(order, " "); got != "base treat treat base base treat" {
		t.Fatalf("run order %q", got)
	}
	checkPairedRuns(t, runs, "base", "treat")
	if want := []float64{2, 5, 2.5}; !reflect.DeepEqual(ratios, want) {
		t.Fatalf("per-pair ratios %v, want %v", ratios, want)
	}
	if median != 2.5 {
		t.Fatalf("median %v, want 2.5", median)
	}
}
