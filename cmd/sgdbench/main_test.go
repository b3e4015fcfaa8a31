package main

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRunTable1WithTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	var stdout, stderr bytes.Buffer
	// table1 prints dataset statistics; table2 actually drives engines, so
	// the trace gets events.
	args := []string{"-experiment", "table1,table2", "-maxn", "150", "-datasets", "w8a",
		"-tasks", "lr", "-epochs", "20", "-trace", trace, "-obs"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Table II") {
		t.Errorf("output missing table headers:\n%s", out)
	}
	if !strings.Contains(out, "Observability summary") {
		t.Errorf("-obs summary missing:\n%s", out)
	}
	events, err := obs.ReadJSONLFile[obs.Event](trace)
	if err != nil {
		t.Fatalf("trace unreadable: %v", err)
	}
	if len(events) == 0 {
		t.Error("trace is empty")
	}
}

func TestRunBadInputs(t *testing.T) {
	cases := [][]string{
		{"-experiment", "nosuchexperiment", "-maxn", "120"},
		{"-badflag"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exit %d, want 2", args, code)
		}
	}
}

func TestRunUnwritableTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-experiment", "table1", "-maxn", "120", "-trace", "/nonexistent/dir/run.jsonl"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1 for unwritable trace path", code)
	}
}

// TestRunDebugAddrTwice: -debug-addr serves from a mux of its own, so a
// second in-process run neither panics on a duplicate /metrics
// registration nor serves a stale aggregator; each run's /metrics answers
// 200 with that run's sgd_ families.
func TestRunDebugAddrTwice(t *testing.T) {
	addrRE := regexp.MustCompile(`debug server on (\S+)`)
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		args := []string{"-experiment", "table2", "-maxn", "150", "-datasets", "w8a",
			"-tasks", "lr", "-epochs", "5", "-debug-addr", "127.0.0.1:0"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run %d: exit %d, stderr:\n%s", i, code, stderr.String())
		}
		m := addrRE.FindStringSubmatch(stderr.String())
		if m == nil {
			t.Fatalf("run %d: no debug address logged:\n%s", i, stderr.String())
		}
		for path, want := range map[string]string{
			"/metrics":      `sgd_epochs_total{engine=`,
			"/debug/vars":   `"sgd_obs"`,
			"/debug/pprof/": "goroutine",
		} {
			resp, err := http.Get("http://" + m[1] + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
				t.Fatalf("run %d: GET %s = %d, want 200 containing %q:\n%s", i, path, resp.StatusCode, want, body)
			}
		}
	}
}
