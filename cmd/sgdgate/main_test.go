package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/regress"
)

func TestRunUsageErrors(t *testing.T) {
	const usageLine = "usage: sgdgate {run|compare|chaos}"
	// A filter naming a strategy the matrix lacks must list the ones it has.
	remaining := []string{"sync", "async", "ps-sync", "ps-async", "local-sync", "local-async"}
	cases := []struct {
		args      []string
		wantUsage bool     // the subcommand itself is rejected, not one of its flags
		mentions  []string // stderr must name each of these
	}{
		{nil, true, nil},
		{[]string{"nosuchsubcommand"}, true, nil},
		{[]string{"bench", "-baseline", "a.json", "-new", "b.json"}, true, nil},
		{[]string{"compare", "-badflag"}, false, nil},
		{[]string{"chaos", "-badflag"}, false, nil},
		{[]string{"compare", "-only", "hetero-"}, false, remaining},
		{[]string{"chaos", "-strategies", "hetero-sync"}, false, remaining},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exit %d, want 2 (stderr: %s)", tc.args, code, stderr.String())
		}
		if tc.wantUsage && !strings.Contains(stderr.String(), usageLine) {
			t.Errorf("run(%v) stderr %q lacks %q", tc.args, stderr.String(), usageLine)
		}
		for _, want := range tc.mentions {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("run(%v) stderr %q does not name %q", tc.args, stderr.String(), want)
			}
		}
	}
}

// chaosUsageErrors checks that every args list is refused by sgdgate chaos
// with exit 2.
func chaosUsageErrors(t *testing.T, cases [][]string) {
	t.Helper()
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"chaos"}, args...), &stdout, &stderr); code != 2 {
			t.Errorf("chaos %v exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

func TestRunChaosUsageErrors(t *testing.T) {
	chaosUsageErrors(t, [][]string{
		{"-plan", "nosuchplan"},
		{"-intensities", "1,bogus"},
		{"-datasets", "nosuchdataset"},
		// Non-finite floats would print NaNx, cut a threshold nothing
		// reaches, or switch the contrast gate off.
		{"-intensities", "NaN"},
		{"-intensities", "0.5,Inf"},
		{"-tol", "NaN"},
		{"-deadline", "-Inf"},
		{"-assert-contrast", "NaN"},
	})
}

// The parameter-server configs share the chaos flags; a filter that leaves
// no ps config is refused rather than gating an empty matrix.
func TestRunPSUsageErrors(t *testing.T) {
	chaosUsageErrors(t, [][]string{
		{"-strategies", "ps-sync,ps-async", "-plan", "nosuchplan"},
		{"-strategies", "ps-sync,ps-async", "-intensities", "1,bogus"},
		{"-strategies", "ps-sync,ps-async", "-badflag"},
		// Every token valid, the combination empty: no ps config runs on a
		// GPU, and no in-process strategy runs on the cluster.
		{"-strategies", "ps-sync", "-devices", "gpu"},
		{"-strategies", "sync", "-devices", "cluster"},
	})
}

// engineTrimmed cuts the matrix to the four sparse cpu-par configs (sync,
// async, local-sync, local-async on w8a) at a scale that runs in well under
// a second.
var engineTrimmed = []string{
	"-datasets", "w8a", "-devices", "cpu-par",
	"-maxn", "250", "-epochs", "8", "-threads", "8",
}

// psTrimmed cuts the matrix to the parameter-server pair at test scale.
var psTrimmed = []string{"-strategies", "ps-sync,ps-async", "-maxn", "200", "-epochs", "8"}

// chaosReport runs sgdgate chaos and decodes the report it prints.
func chaosReport(t *testing.T, args ...string) regress.DegradationReport {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"chaos"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var rep regress.DegradationReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v", err)
	}
	return rep
}

func TestRunStormReport(t *testing.T) {
	rep := chaosReport(t, append([]string{"-plan", "storm", "-seed", "1"}, engineTrimmed...)...)
	if rep.Plan.Name != "storm" {
		t.Errorf("report plan %q, want storm", rep.Plan.Name)
	}
	if len(rep.Configs) != 4 {
		t.Fatalf("got %d configs, want 4 (sync, async, local-sync, local-async on w8a/cpu-par)", len(rep.Configs))
	}
	if !rep.AsyncAllReached {
		t.Error("an async config missed its threshold under storm at test scale")
	}
	// The contrast the command exists to show: every synchronous tier
	// (barrier or H-step barrier) degrades by several times the healthy
	// time-to-threshold (or never reaches), the asynchronous ones barely.
	if rep.MinSyncSlowdown >= 0 && rep.MinSyncSlowdown < 3 {
		t.Errorf("sync slowdown %.2f, want >= 3 or unreached", rep.MinSyncSlowdown)
	}
	if rep.MaxAsyncSlowdown > 3 {
		t.Errorf("async slowdown %.2f, want < 3", rep.MaxAsyncSlowdown)
	}
}

// The local strategy tokens must select exactly the Local-SGD tier.
func TestRunLocalStrategyFilter(t *testing.T) {
	rep := chaosReport(t, append([]string{"-plan", "storm", "-strategies", "local-sync,local-async"}, engineTrimmed...)...)
	if len(rep.Configs) != 2 {
		t.Fatalf("got %d configs, want the 2 local-sgd ones", len(rep.Configs))
	}
	for _, c := range rep.Configs {
		if c.Strategy != "local-sync" && c.Strategy != "local-async" {
			t.Errorf("filter leaked config %q", c.Config)
		}
	}
}

func TestRunStormReportAndContrastGate(t *testing.T) {
	rep := chaosReport(t, append([]string{"-plan", "storm", "-seed", "1", "-assert-contrast", "2"}, psTrimmed...)...)
	if rep.Plan.Name != "storm" {
		t.Errorf("report plan %q, want storm", rep.Plan.Name)
	}
	if len(rep.Configs) != 2 {
		t.Fatalf("got %d configs, want ps-sync + ps-async", len(rep.Configs))
	}
	if !rep.AsyncAllReached {
		t.Error("ps-async missed its threshold under storm at test scale")
	}
	// The cluster contrast: the barrier waits out the 10x straggler on
	// every round while dynamic claiming absorbs it.
	if rep.MinSyncSlowdown >= 0 && rep.MinSyncSlowdown < 2*rep.MaxAsyncSlowdown {
		t.Errorf("sync slowdown %.2fx < 2x async %.2fx", rep.MinSyncSlowdown, rep.MaxAsyncSlowdown)
	}
}

func TestContrastAssertionNeedsBothStrategies(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"chaos", "-plan", "storm", "-strategies", "ps-async", "-assert-contrast", "2", "-maxn", "200", "-epochs", "8"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (assertion cannot hold without a sync config)", code)
	}
	if !strings.Contains(stderr.String(), "contrast assertion FAILED") {
		t.Errorf("stderr missing assertion failure: %s", stderr.String())
	}
}

func TestAssertContrast(t *testing.T) {
	mk := func(minSync, maxAsync float64, reached bool, strategies ...string) regress.DegradationReport {
		rep := regress.DegradationReport{
			MinSyncSlowdown:  minSync,
			MaxAsyncSlowdown: maxAsync,
			AsyncAllReached:  reached,
		}
		for _, s := range strategies {
			rep.Configs = append(rep.Configs, regress.ChaosConfigReport{Strategy: s})
		}
		return rep
	}
	if err := assertContrast(mk(10, 1.6, true, "ps-sync", "ps-async"), 2); err != nil {
		t.Errorf("10x vs 1.6x failed a 2x assertion: %v", err)
	}
	if err := assertContrast(mk(-1, 1.6, true, "ps-sync", "ps-async"), 2); err != nil {
		t.Errorf("unreached sync (infinite degradation) failed the assertion: %v", err)
	}
	if err := assertContrast(mk(2.5, 1.6, true, "ps-sync", "ps-async"), 2); err == nil {
		t.Error("2.5x vs 1.6x passed a 2x assertion")
	}
	if err := assertContrast(mk(10, 1.6, false, "ps-sync", "ps-async"), 2); err == nil {
		t.Error("assertion passed with a ps-async config missing its threshold")
	}
	// The sides come from the strategy table, so one report over every
	// tier is one assertion.
	if err := assertContrast(mk(9, 1.9, true, "sync", "async", "local-sync", "ps-async"), 2); err != nil {
		t.Errorf("engine ladder 9x vs 1.9x failed a 2x assertion: %v", err)
	}
	if err := assertContrast(mk(9, 1.9, true, "sync", "local-sync", "ps-sync"), 2); err == nil {
		t.Error("assertion passed with no async config")
	}
}

// writtenReport runs sgdgate chaos with -out and decodes the file it writes.
func writtenReport(t *testing.T, args ...string) regress.DegradationReport {
	t.Helper()
	var stdout, stderr bytes.Buffer
	out := filepath.Join(t.TempDir(), "report.json")
	args = append([]string{"chaos", "-plan", "straggler", "-out", out}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty with -out: %q", stdout.String())
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep regress.DegradationReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func configNames(rep regress.DegradationReport) string {
	var got []string
	for _, c := range rep.Configs {
		got = append(got, c.Strategy+"/"+c.Dataset)
	}
	return strings.Join(got, " ")
}

func TestRunWritesFile(t *testing.T) {
	rep := writtenReport(t, "-strategies", "async", "-devices", "cpu-par", "-maxn", "200", "-epochs", "8")
	if got := configNames(rep); got != "async/covtype async/w8a" {
		t.Errorf("unexpected configs in file report: %s", got)
	}
}

func TestRunPSWritesFile(t *testing.T) {
	rep := writtenReport(t, "-strategies", "ps-async", "-maxn", "200", "-epochs", "8")
	if got := configNames(rep); got != "ps-async/covtype" {
		t.Errorf("unexpected configs in file report: %s", got)
	}
}

// listedPlans runs sgdgate chaos -list with extra args and checks that every
// wanted plan is printed.
func listedPlans(t *testing.T, extra []string, want ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"chaos", "-list"}, extra...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, w := range want {
		if !strings.Contains(stdout.String(), w) {
			t.Errorf("-list output missing plan %q:\n%s", w, stdout.String())
		}
	}
}

func TestRunList(t *testing.T) {
	listedPlans(t, nil, "storm", "straggler", "drops", "stale")
}

// -list lists the plans and runs nothing, whatever the matrix filter.
func TestRunPSList(t *testing.T) {
	listedPlans(t, []string{"-strategies", "ps-sync,ps-async"}, "storm", "straggler", "drops")
}
