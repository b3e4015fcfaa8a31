package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/span"
)

// syncBuf lets the test read run()'s output while run() is still writing
// from its own goroutine.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
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

func TestRunOfflineServeForAndSnapshotRoundtrip(t *testing.T) {
	emulateTrainerUnderRace(t)
	snap := filepath.Join(t.TempDir(), "snap.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", "127.0.0.1:0", "-maxn", "300", "-pretrain", "2",
		"-serve-for", "200ms", "-save-snapshot", snap, "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "served 0 requests") {
		t.Errorf("missing summary line:\n%s", stdout.String())
	}
	// The saved snapshot must serve again as-is.
	var stdout2, stderr2 bytes.Buffer
	code = run([]string{
		"-addr", "127.0.0.1:0", "-snapshot", snap,
		"-serve-for", "100ms", "-quiet",
	}, &stdout2, &stderr2)
	if code != 0 {
		t.Fatalf("serving saved snapshot: exit %d, stderr:\n%s", code, stderr2.String())
	}
}

// A step that overflows the weights must stop sgdserve before it serves
// them: a diverged -pretrain exits 1 with a message instead of publishing.
func TestRunDivergedPretrainExits(t *testing.T) {
	emulateTrainerUnderRace(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", "127.0.0.1:0", "-maxn", "300", "-pretrain", "2", "-step", "1e308",
		"-serve-for", "100ms", "-quiet",
	}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "pretraining diverged") {
		t.Fatalf("exit %d, stderr %q; want 1 and a divergence message", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "served") {
		t.Errorf("a diverged model was served:\n%s", stdout.String())
	}
}

func TestRunOnlineModeHotSwaps(t *testing.T) {
	emulateTrainerUnderRace(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", "127.0.0.1:0", "-maxn", "300", "-train", "-eval-every", "2",
		"-serve-for", "300ms", "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	m := regexp.MustCompile(`(\d+) snapshot swaps`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no swap count in summary:\n%s", stdout.String())
	}
	if swaps, _ := strconv.Atoi(m[1]); swaps < 2 {
		t.Errorf("online mode hot-swapped %d times, want >= 2 (initial + per-epoch):\n%s",
			swaps, stdout.String())
	}
}

// TestRunSpansAndSLOSmoke boots a fully instrumented server, drives a traced
// request through HTTP, reads /slo live, and checks the span export and
// shutdown summary afterwards.
func TestRunSpansAndSLOSmoke(t *testing.T) {
	emulateTrainerUnderRace(t)
	spansPath := filepath.Join(t.TempDir(), "spans.jsonl")
	var stdout, stderr syncBuf
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-maxn", "300", "-pretrain", "2",
			"-serve-for", "2s", "-spans", spansPath, "-slow", "0",
			"-slo", "latency<=1s@99,errors@99.9", "-slo-fast", "2s",
		}, &stdout, &stderr)
	}()

	addrRE := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if m := addrRE.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never listened; stderr:\n%s", stderr.String())
	}
	base := "http://" + addr

	req, _ := http.NewRequest("POST", base+"/predict", strings.NewReader(`{"indices":[0],"values":[1]}`))
	req.Header.Set("X-Trace-Id", "00000000000000ab")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-Trace-Id") != "00000000000000ab" {
		t.Fatalf("predict: status %d, X-Trace-Id %q", resp.StatusCode, resp.Header.Get("X-Trace-Id"))
	}

	sloResp, err := http.Get(base + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep span.Report
	if err := json.NewDecoder(sloResp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	sloResp.Body.Close()
	if len(rep.Objectives) != 2 || rep.Alerting {
		t.Fatalf("/slo = %+v", rep)
	}

	if code := <-done; code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "spans: 1 traces started, 1 kept") {
		t.Errorf("span summary missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "slo latency") || !strings.Contains(out, "ok") {
		t.Errorf("slo summary missing:\n%s", out)
	}
	recs, err := obs.ReadJSONLFile[span.TraceRec](spansPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Trace != "00000000000000ab" {
		t.Fatalf("span export = %+v", recs)
	}
	names := map[string]bool{}
	for _, s := range recs[0].Spans {
		names[s.Name] = true
	}
	if !names["queue_wait"] || !names["score"] {
		t.Errorf("exported trace missing serve-path spans: %v", recs[0].Spans)
	}
}

// TestRunQuantizedSmoke serves with -quantized and checks the int8 path is
// live end to end: /healthz reports it, /predict answers, and the stats
// report counts quantised batches.
func TestRunQuantizedSmoke(t *testing.T) {
	emulateTrainerUnderRace(t)
	var stdout, stderr syncBuf
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-maxn", "300", "-pretrain", "2",
			"-serve-for", "2s", "-quantized", "-max-batch", "1",
		}, &stdout, &stderr)
	}()

	addrRE := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if m := addrRE.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never listened; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "scoring int8") {
		t.Errorf("startup log does not announce the int8 path:\n%s", stderr.String())
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/predict", "application/json",
		strings.NewReader(`{"indices":[0,2],"values":[1,-0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		Score   float64 `json:"score"`
		Version int64   `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || pred.Version < 1 {
		t.Fatalf("predict: status %d, result %+v", resp.StatusCode, pred)
	}

	hResp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Quantized bool `json:"quantized"`
	}
	if err := json.NewDecoder(hResp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if !health.Quantized {
		t.Error("/healthz does not report quantized scoring")
	}

	sResp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		QuantBatches int64 `json:"quant_batches"`
	}
	if err := json.NewDecoder(sResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sResp.Body.Close()
	if stats.QuantBatches < 1 {
		t.Errorf("/stats quant_batches = %d after a quantised predict", stats.QuantBatches)
	}

	if code := <-done; code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-model", "tree"},
		{"-dataset", "nonesuch"},
		{"-chaos-plan", "nonesuch"},
		{"-slo", "latency<=junk@99"},
		{"-bogus-flag"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

func TestRunSnapshotDimMismatch(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snap.json")
	b, _ := json.Marshal(map[string]any{"model": "lr", "dim": 3, "weights": []float64{1, 2, 3}})
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-snapshot", snap, "-maxn", "300", "-quiet"}, &stdout, &stderr); code != 1 {
		t.Fatalf("mismatched snapshot: exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "weights") {
		t.Errorf("unhelpful error: %s", stderr.String())
	}
}

// TestRunDebugAddrTwice: the -debug-addr listener serves the aggregator
// /metrics its help text promises, next to expvar and pprof, from a mux of
// its own — so a second in-process run starts its own without a panic.
func TestRunDebugAddrTwice(t *testing.T) {
	emulateTrainerUnderRace(t)
	addrRE := regexp.MustCompile(`debug server on (\S+)`)
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-addr", "127.0.0.1:0", "-maxn", "300", "-pretrain", "1",
			"-serve-for", "50ms", "-debug-addr", "127.0.0.1:0",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("run %d: exit %d, stderr:\n%s", i, code, stderr.String())
		}
		m := addrRE.FindStringSubmatch(stderr.String())
		if m == nil {
			t.Fatalf("run %d: no debug address logged:\n%s", i, stderr.String())
		}
		for path, want := range map[string]string{
			"/metrics":      "# TYPE sgd_epochs_total counter",
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
