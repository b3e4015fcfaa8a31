package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/span"
)

// The goldens under testdata/ were rendered from the fixed inputs in
// fixtures_test.go by the implementations this package replaced: the two
// per-package JSONL writers (events.jsonl, spans.jsonl), the epoch-trace
// sgdtrace (events-*.golden) and the former standalone span inspector,
// sgdspan (spans*.golden, named after the flags it ran with). Output must
// stay byte-identical; the only intended change is the exposition fix in
// declareObservationCount.

// TestWritersGolden: the one JSONL codec writes both trace formats byte for
// byte as their separate writers did.
func TestWritersGolden(t *testing.T) {
	var events bytes.Buffer
	tw := obs.NewJSONLWriter[obs.Event](&events)
	goldenEvents(func(engine, dataset string) obs.Recorder { return obs.TraceRun(tw, engine, dataset) })
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var spans bytes.Buffer
	sw := span.NewWriter(&spans)
	recs := goldenSpans()
	for i := range recs {
		sw.Write(&recs[i])
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	for golden, got := range map[string][]byte{"events.jsonl": events.Bytes(), "spans.jsonl": spans.Bytes()} {
		want, err := os.ReadFile("testdata/" + golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted:\n%s", golden, got)
		}
	}
}

// TestRunGolden: every epoch and span output mode over the fixed traces.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"events-summary.golden", []string{"testdata/events.jsonl"}},
		{"events-prom.golden", []string{"-prom", "testdata/events.jsonl"}},
		{"events-engine-async.golden", []string{"-engine", "async", "testdata/events.jsonl"}},
		{"spans.golden", []string{"testdata/spans.jsonl"}},
		{"spans-json.golden", []string{"-json", "testdata/spans.jsonl"}},
		{"spans-top2-worst5.golden", []string{"-top", "2", "-worst", "5", "testdata/spans.jsonl"}},
		{"spans-keep-head.golden", []string{"-keep", "head", "-worst", "0", "testdata/spans.jsonl"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, strings.NewReader(""), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", tc.args, code, stderr.String())
		}
		raw, err := os.ReadFile("testdata/" + tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		want := string(raw)
		if tc.golden == "events-prom.golden" {
			want = declareObservationCount(want)
		}
		if got := stdout.String(); got != want {
			t.Errorf("%v drifted from %s:\n%s", tc.args, tc.golden, got)
		}
	}
}

// declareObservationCount applies the exposition fix to a snapshot
// rendered before it: the sgd_observation_count samples, formerly
// interleaved into the sgd_observation_sum block with no header of their
// own, move into their own declared family after it, the snapshot's last.
func declareObservationCount(old string) string {
	var b, counts strings.Builder
	for _, line := range strings.SplitAfter(old, "\n") {
		if strings.HasPrefix(line, "sgd_observation_count{") {
			counts.WriteString(line)
		} else {
			b.WriteString(line)
		}
	}
	b.WriteString("# HELP sgd_observation_count Number of sampled observation values.\n# TYPE sgd_observation_count counter\n")
	return b.String() + counts.String()
}
