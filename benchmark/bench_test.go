package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/serve"
)

// None of these tests runs a workload: they cover the benchmark's own
// arithmetic and its output checks on hand-made inputs.

func TestInterpolateCrossing(t *testing.T) {
	// Loss falls 0.50 -> 0.40 between epochs 10 and 15; 0.42 is 80% of the way.
	if got := interpolateCrossing(10, 15, 0.50, 0.40, 0.42); math.Abs(got-14) > 1e-12 {
		t.Errorf("epoch crossing = %v, want 14", got)
	}
	// The same fraction places the time.
	if got := interpolateCrossing(1.0, 2.0, 0.50, 0.40, 0.42); math.Abs(got-1.8) > 1e-12 {
		t.Errorf("time crossing = %v, want 1.8", got)
	}
	// A target met exactly at the later evaluation is that evaluation.
	if got := interpolateCrossing(10, 15, 0.50, 0.40, 0.40); got != 15 {
		t.Errorf("crossing at the evaluation = %v, want 15", got)
	}
	// A curve that did not fall cannot be interpolated: the later point.
	if got := interpolateCrossing(3, 4, 0.40, 0.40, 0.40); got != 4 {
		t.Errorf("flat curve = %v, want 4", got)
	}
}

func TestMedianAndRepCount(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	for _, c := range []struct {
		budget, first float64
		lo, hi, want  int
	}{
		{8, 1.25, 5, 32, 7},    // ceil(6.4)
		{8, 0.1, 5, 32, 32},    // capped
		{8, 10.0, 5, 32, 5},    // floor
		{8, 0, 5, 32, 32},      // no timing yet: as many as allowed
		{1.5, 0.03, 5, 80, 50}, // the serving workload's short training stage
	} {
		if got := repCount(c.budget, c.first, c.lo, c.hi); got != c.want {
			t.Errorf("repCount(%v, %v, %d, %d) = %d, want %d", c.budget, c.first, c.lo, c.hi, got, c.want)
		}
	}
}

func TestPercentileNS(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if v, beyond := percentileNS(s, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %d with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := percentileNS(s, 0.50); v != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %d with %d beyond, want 500 with 500", v, beyond)
	}
	if v, beyond := percentileNS(s[:3], 0.999); v != 3 || beyond != 0 {
		t.Errorf("p99.9 of three samples = %d with %d beyond, want the maximum with 0", v, beyond)
	}
	if v, _ := percentileNS(nil, 0.5); v != 0 {
		t.Errorf("percentile of nothing = %d", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = quartiles([]float64{40, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles of three = %v %v %v, want 10 20 40", q1, q2, q3)
	}
}

func TestScheduleAndLateness(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 50000, 2*time.Second)
	if s.n != 100000 || s.interval != 20*time.Microsecond {
		t.Fatalf("schedule = %d requests every %v, want 100000 every 20us", s.n, s.interval)
	}
	if got := s.due(5); !got.Equal(start.Add(100 * time.Microsecond)) {
		t.Errorf("due(5) = %v", got.Sub(start))
	}
	// Request 0 is due at the start itself; nothing is due before it.
	if got := s.dueBy(start.Add(-time.Nanosecond)); got != 0 {
		t.Errorf("due before the start = %d", got)
	}
	if got := s.dueBy(start); got != 1 {
		t.Errorf("due at the start = %d, want 1", got)
	}
	// After a 1 ms stall the 51 requests of that millisecond go out together.
	if got := s.dueBy(start.Add(time.Millisecond)); got != 51 {
		t.Errorf("due after 1ms = %d, want 51", got)
	}
	if got := s.dueBy(start.Add(time.Hour)); got != s.n {
		t.Errorf("due long after the end = %d, want all %d", got, s.n)
	}
	// Lateness runs from the due time and is never negative.
	if got := s.lateness(5, start.Add(130*time.Microsecond)); got != 30*time.Microsecond {
		t.Errorf("lateness = %v, want 30us", got)
	}
	if got := s.lateness(5, start); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 0, Parent: -1, Name: "rep", Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.RunEpoch", Layer: "core", Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "ps.Pull", Layer: "ps", Start: 20, End: 30},
		{ID: 3, Parent: 1, Name: "ps.Push", Layer: "ps", Start: 25, End: 40}, // overlaps the pull
		{ID: 4, Parent: 0, Name: "loss_eval", Layer: "model", Start: 60, End: 90},
		{ID: 5, Parent: 0, Name: "late", Layer: "model", Start: 95, End: 120},   // runs past its parent
		{ID: 6, Parent: -1, Name: "request", Layer: "bench", Start: 0, End: 50}, // another tree
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 30 - 5, 50 - 20, 10, 15, 30, 25, 50}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	by, total := layerSelfMS(spans, 0)
	// The subtree of span 0 accounts for its 100 ns, plus the 20 ns the late
	// child ran past it and the 5 ns the two ps calls overlapped: with
	// sequential, nested children the sum is the root's duration exactly.
	if got := total * 1e6; math.Abs(got-125) > 1e-6 {
		t.Errorf("subtree total = %v ns, want 125", got)
	}
	if got := by["ps"] * 1e6; math.Abs(got-25) > 1e-6 {
		t.Errorf("ps self = %v ns, want 25", got)
	}
	if _, ok := by["bench"]; !ok || math.Abs(by["bench"]*1e6-15) > 1e-6 {
		t.Errorf("bench self = %v ns, want 15 (the other tree must not count)", by["bench"]*1e6)
	}
}

// tinyServed builds a served model over a few generated rows.
func tinyServed(t *testing.T) *servedModel {
	t.Helper()
	spec, err := data.Lookup("w8a")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.Generate(spec.Scaled(64.0 / float64(spec.N)))
	m := model.NewLR(ds.D())
	wA, wB := m.InitParams(0), m.InitParams(0)
	for j := range wA {
		wA[j] = math.Sin(float64(j))
		wB[j] = math.Cos(float64(j))
	}
	return newServedModel(m, ds, wA, wB)
}

func TestCheckScoreVersionParity(t *testing.T) {
	s := tinyServed(t)
	row := 7
	a, b := s.f[0][row], s.f[1][row]
	if a == b {
		t.Fatal("test vectors score the row alike")
	}
	vm := versionMap{base: 5}
	for _, c := range []struct {
		version int64
		score   float64
		want    bool
		why     string
	}{
		{5, a, true, "the base version holds vector 0"},
		{6, b, true, "the next publish holds vector 1"},
		{7, a, true, "parity alternates"},
		{6, a, false, "vector 0's score under vector 1's version is a stale twin"},
		{5, (a + b) / 2, false, "a score of neither vector is a torn model"},
		{4, a, false, "a version older than the installed model must not be served"},
	} {
		if got := s.checkScore(vm, false, row, serve.Result{Version: c.version, Score: c.score}); got != c.want {
			t.Errorf("version %d score %v: check = %v, want %v (%s)", c.version, c.score, got, c.want, c.why)
		}
	}
	static := versionMap{base: 5, static: true}
	if s.checkScore(static, false, row, serve.Result{Version: 7, Score: a}) {
		t.Error("a static store served a version nobody published")
	}
	// The int8 path may differ from the float score by the row's bound, no more.
	q := s.m.QuantScore(model.Quantize(s.w[0]), s.ds, row)
	if !s.checkScore(vm, true, row, serve.Result{Version: 5, Score: q}) {
		t.Errorf("quantised score %v rejected (float %v, tolerance %v)", q, a, s.tol[0][row])
	}
	if s.checkScore(vm, true, row, serve.Result{Version: 5, Score: a + 2*s.tol[0][row]}) {
		t.Error("a score twice the bound away was accepted")
	}
}

func TestWrongOutputsFailTheRun(t *testing.T) {
	// A curve that departs from the oracle by more than rounding.
	ref := map[int]float64{0: 0.6931, 5: 0.60, 10: 0.55}
	good := []lossPoint{{0, 0.6931, 0}, {5, 0.60 * (1 + 1e-12), 1}, {10, 0.55, 2}}
	bad := []lossPoint{{0, 0.6931, 0}, {5, 0.61, 1}, {10, 0.55, 2}}
	if err := checkOracle(good, ref, oracleTol); err != nil {
		t.Errorf("curve within rounding rejected: %v", err)
	}
	if err := checkOracle(bad, ref, oracleTol); err == nil {
		t.Error("a wrong loss passed the oracle")
	}
	if err := checkOracle(good[:1], ref, oracleTol); err == nil {
		t.Error("a curve with one point in common passed the oracle")
	}
	if sameCurve(good, bad) || !sameCurve(good, good) {
		t.Error("sameCurve does not compare losses bit for bit")
	}

	// Any failed check turns into correct=false and a non-zero exit.
	endToEnd := loadTestSpec(t).EndToEnd
	o := &outcome{metrics: map[string]float64{}, attempted: 10}
	for _, d := range endToEnd {
		o.set(d.Name, 1.5)
	}
	var out, errw bytes.Buffer
	if code := report(o, endToEnd, false, &out, &errw); code != 0 {
		t.Fatalf("clean run exits %d: %s", code, errw.String())
	}
	var res result
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		t.Fatalf("result line %q: %v", out.String(), err)
	}
	if !res.Correct || res.Attempted != 10 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("clean result = %+v", res)
	}
	o.failed = 3
	o.problem("serving (closed): 3 of 10 responses carried a wrong score")
	out.Reset()
	if code := report(o, endToEnd, false, &out, &errw); code == 0 {
		t.Error("a failed output check exits 0")
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil || res.Correct || res.Failed != 3 {
		t.Errorf("failed result = %+v (%v)", res, err)
	}
	if !strings.Contains(errw.String(), "CHECK FAILED") {
		t.Error("the failed check is not named on stderr")
	}
	// An end-to-end metric that was never measured is an error, not a zero.
	delete(o.metrics, "serve_rps")
	o.problems = nil
	if code := report(o, endToEnd, false, &out, &errw); code == 0 {
		t.Error("a missing end-to-end metric exits 0")
	}
}

func TestTracedReportListsEveryPerLayerMetric(t *testing.T) {
	perLayer := loadTestSpec(t).PerLayer
	o := &outcome{metrics: map[string]float64{}, attempted: 1}
	o.set("pool.dispatch_us", 0.9)
	o.set("serve_rps", 5e5) // end-to-end numbers stay out of a traced result
	var out, errw bytes.Buffer
	if code := report(o, perLayer, true, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	var res result
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	if m := res.Metrics["pool.dispatch_us"]; m.Value != 0.9 || m.Unit != "us" {
		t.Errorf("pool.dispatch_us reported as %+v", m)
	}
	if _, ok := res.Metrics["serve_rps"]; ok {
		t.Error("an end-to-end metric leaked into the traced result")
	}
	if !strings.Contains(errw.String(), "skipped: linalg.par_speedup") {
		t.Error("an unmeasured per-layer metric is not reported as skipped")
	}
}

func TestCheckPSCounts(t *testing.T) {
	// 100 rows, 2 workers x 16: three full rounds of 2 cycles and a last
	// round of 4 rows (1 cycle) = 7 cycles an epoch, 4 shards each.
	want := int64(3 * 7 * 4)
	ok := transportCounts{pulls: want, pushes: want, applied: want}
	if err := checkPSCounts(ok, 3, 100, 2, 16, 4); err != nil {
		t.Errorf("exact counts rejected: %v", err)
	}
	for name, c := range map[string]transportCounts{
		"lost push": {pulls: want, pushes: want, applied: want - 1},
		"duplicate": {pulls: want, pushes: want, applied: want, duplicates: 1},
		"error":     {pulls: want, pushes: want, applied: want, errors: 1},
	} {
		if err := checkPSCounts(c, 3, 100, 2, 16, 4); err == nil {
			t.Errorf("%s passed the count check", name)
		}
	}
}

func TestReferenceTrainer(t *testing.T) {
	spec, err := data.Lookup("w8a")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.Generate(spec.Scaled(256.0 / float64(spec.N)))
	every := func(int) bool { return true }
	// Full batch: the split over goroutines changes the summation order only.
	one, _ := refTrain(ds, refConfig{step: 1, batch: ds.N(), epochs: 5, evalAt: every, parts: 1})
	two, _ := refTrain(ds, refConfig{step: 1, batch: ds.N(), epochs: 5, evalAt: every, parts: 2})
	for ep := 0; ep <= 5; ep++ {
		if relDiff(one[ep], two[ep]) > 1e-12 {
			t.Errorf("epoch %d: %v on one goroutine, %v on two", ep, one[ep], two[ep])
		}
	}
	if math.Abs(one[0]-math.Ln2) > 1e-12 {
		t.Errorf("loss at zero weights = %v, want ln 2", one[0])
	}
	if !(one[5] < one[1] && one[1] < one[0]) {
		t.Errorf("full-batch descent does not descend: %v", one)
	}
	// Its loss is the program's loss.
	_, w := refTrain(ds, refConfig{step: 0.5, batch: 1, seed: 3, epochs: 2, evalAt: every, parts: 1})
	if a, b := refLoss(ds, w, 2), model.MeanLoss(model.NewLR(ds.D()), w, ds); relDiff(a, b) > 1e-12 {
		t.Errorf("reference loss %v, model.MeanLoss %v", a, b)
	}
	// Same seed, same curve; the mean over shuffles lies among the runs.
	a, _ := refTrain(ds, refConfig{step: 0.5, batch: 1, seed: 3, epochs: 2, evalAt: every, parts: 1})
	b, _ := refTrain(ds, refConfig{step: 0.5, batch: 1, seed: 3, epochs: 2, evalAt: every, parts: 1})
	c, _ := refTrain(ds, refConfig{step: 0.5, batch: 1, seed: 4, epochs: 2, evalAt: every, parts: 1})
	if a[2] != b[2] {
		t.Errorf("same seed, different loss: %v %v", a[2], b[2])
	}
	mean := refTarget(ds, refConfig{step: 0.5, batch: 1, seed: 3, epochs: 2, evalAt: every, parts: 1}, 2)
	if want := (a[2] + c[2]) / 2; relDiff(mean[2], want) > 1e-12 {
		t.Errorf("mean of two shuffles = %v, want %v", mean[2], want)
	}
}

func TestRefusesInflatedGOMAXPROCS(t *testing.T) {
	t.Setenv("GOMAXPROCS", strconv.Itoa(runtime.NumCPU()+1))
	var out, errw bytes.Buffer
	if code := run([]string{"-workload", "sync-kernels"}, &out, &errw); code != 2 {
		t.Errorf("exit %d with GOMAXPROCS above the CPU count, want 2 (%s)", code, errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("printed a result: %s", out.String())
	}
}

func TestUnknownWorkloadIsAUsageError(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-spec", "../BENCHMARK.json", "-workload", "no-such"}, &out, &errw); code != 2 {
		t.Errorf("exit %d for an unknown workload, want 2", code)
	}
}

func loadTestSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON holds BENCHMARK.json and the program together where the
// file cannot speak for itself: the workloads the program defines, the
// -seconds the protocol is written for, and the contract's cap on bounds.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadTestSpec(t)
	if spec.RunSeconds != protocolSeconds {
		t.Errorf("run_seconds = %d, the protocol is written for %d", spec.RunSeconds, protocolSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q listed, %q defined", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != 9 {
		t.Errorf("%d end-to-end metrics listed, want 9", len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestPlanKeepsTheWindowFloor: at the protocol's -seconds no timed window of
// either stage is shorter than 0.25 s, the primary serving windows are the
// 1.2 s and 2 s the README states, and a longer run scales them.
func TestPlanKeepsTheWindowFloor(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		p := wl.plan(protocolSeconds)
		for _, d := range []time.Duration{p.closed, p.open, p.swap} {
			if d < 250*time.Millisecond {
				t.Errorf("%s: a serving window of %v", wl.name, d)
			}
		}
		if wl.serving && (p.closed != 1200*time.Millisecond || p.open != 2*time.Second || p.swap != 1200*time.Millisecond) {
			t.Errorf("%s: windows %v / %v / %v, want 1.2 s / 2 s / 1.2 s", wl.name, p.closed, p.open, p.swap)
		}
		if !wl.serving && p.trainBudget != 8 {
			t.Errorf("%s: training budget %v s, want 8", wl.name, p.trainBudget)
		}
		if p2 := wl.plan(2 * protocolSeconds); p2.open != 2*p.open || p2.trainBudget != 2*p.trainBudget {
			t.Errorf("%s: a run twice as long does not double its windows", wl.name)
		}
	}
}
