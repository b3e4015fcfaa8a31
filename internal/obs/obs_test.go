package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// driveRun pushes two epochs of representative data through r.
func driveRun(r Recorder) {
	r.Phase(PhaseGradient, 0.7)
	r.Phase(PhaseUpdate, 0.2)
	r.Phase(PhaseBarrier, 0.1)
	r.Add(CounterWorkerUpdates, 1000)
	r.Add(CounterCASRetries, 31)
	r.Observe(MetricBatchSeconds, 0.01)
	r.Observe(MetricBatchSeconds, 0.03)
	r.Phase(PhaseLossEval, 0.005)
	r.EndEpoch(1.0)

	r.Phase(PhaseGradient, 0.6)
	r.Phase(PhaseUpdate, 0.3)
	r.Phase(PhaseBarrier, 0.1)
	r.Add(CounterWorkerUpdates, 1000)
	r.EndEpoch(1.0)
}

func TestNopRecorderAllocatesNothing(t *testing.T) {
	var r Recorder = Nop{}
	allocs := testing.AllocsPerRun(100, func() {
		r.Phase(PhaseGradient, 1.0)
		r.Add(CounterWorkerUpdates, 1)
		r.Observe(MetricBatchSeconds, 0.5)
		r.EndEpoch(2.0)
	})
	if allocs != 0 {
		t.Fatalf("no-op recorder allocated %v bytes-ish per op, want 0", allocs)
	}
}

// BenchmarkNopRecorder asserts the uninstrumented path is free: 0 allocs/op.
func BenchmarkNopRecorder(b *testing.B) {
	var r Recorder = Or(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Phase(PhaseGradient, 1.0)
		r.Add(CounterWorkerUpdates, 1)
		r.Observe(MetricBatchSeconds, 0.5)
		r.EndEpoch(2.0)
	}
}

func TestOrAndEnabled(t *testing.T) {
	if _, ok := Or(nil).(Nop); !ok {
		t.Fatal("Or(nil) is not Nop")
	}
	if Enabled(nil) || Enabled(Nop{}) {
		t.Fatal("nil/Nop reported enabled")
	}
	a := NewAggregator()
	r := a.Run("e", "d")
	if !Enabled(r) {
		t.Fatal("live recorder reported disabled")
	}
	if Or(r) != r {
		t.Fatal("Or did not pass through a live recorder")
	}
}

func TestTeeFansOutAndCollapses(t *testing.T) {
	if _, ok := Tee(nil, Nop{}).(Nop); !ok {
		t.Fatal("Tee of dead sinks is not Nop")
	}
	a := NewAggregator()
	r := a.Run("e", "d")
	if Tee(r, nil) != r {
		t.Fatal("single-sink Tee did not collapse")
	}
	b := NewAggregator()
	tr := Tee(a.Run("e", "d"), b.Run("e", "d"))
	tr.Phase(PhaseGradient, 1)
	tr.Add(CounterBatches, 2)
	tr.EndEpoch(1)
	for i, agg := range []*Aggregator{a, b} {
		runs := agg.Runs()
		if len(runs) != 1 || runs[0].Counter(CounterBatches) != 2 {
			t.Fatalf("sink %d missed the teed stream: %+v", i, runs)
		}
	}
}

func TestEnumStringsRoundTrip(t *testing.T) {
	for p := Phase(0); p < numPhases; p++ {
		got, ok := enumIndex[Phase](phaseNames[:], p.String())
		if !ok || got != p {
			t.Fatalf("phase %d round trip failed (%q)", p, p.String())
		}
	}
	for c := Counter(0); c < numCounters; c++ {
		got, ok := enumIndex[Counter](counterNames[:], c.String())
		if !ok || got != c {
			t.Fatalf("counter %d round trip failed (%q)", c, c.String())
		}
	}
	for m := Metric(0); m < numMetrics; m++ {
		got, ok := enumIndex[Metric](metricNames[:], m.String())
		if !ok || got != m {
			t.Fatalf("metric %d round trip failed (%q)", m, m.String())
		}
	}
	if _, ok := enumIndex[Phase](phaseNames[:], "nope"); ok {
		t.Fatal("unknown phase accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewJSONLWriter[Event](&buf)
	driveRun(TraceRun(tw, "async/cpu-par(56)", "covtype"))
	driveRun(TraceRun(tw, "sync/gpu", "w8a"))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL[Event](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	ev := events[0]
	if ev.Engine != "async/cpu-par(56)" || ev.Dataset != "covtype" || ev.Epoch != 0 {
		t.Fatalf("event identity %+v", ev)
	}
	if ev.Seconds != 1.0 || ev.Phases["gradient"] != 0.7 || ev.Phases["loss_eval"] != 0.005 {
		t.Fatalf("event payload %+v", ev)
	}
	if ev.Counters["cas_retries"] != 31 {
		t.Fatalf("counters %+v", ev.Counters)
	}
	d := ev.Observations["batch_seconds"]
	if d.Count != 2 || d.Min != 0.01 || d.Max != 0.03 {
		t.Fatalf("observations %+v", d)
	}
	if events[1].Epoch != 1 {
		t.Fatalf("second epoch numbered %d", events[1].Epoch)
	}
	// Epoch 2 of each run: no cas_retries key (counters reset per epoch).
	if _, ok := events[1].Counters["cas_retries"]; ok {
		t.Fatal("epoch buckets not reset between epochs")
	}
}

func TestTraceSkipsEmptyEpochs(t *testing.T) {
	var buf bytes.Buffer
	tw := NewJSONLWriter[Event](&buf)
	r := TraceRun(tw, "e", "d")
	r.EndEpoch(0) // nothing recorded, zero seconds: dropped
	r.EndEpoch(2.5)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL[Event](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Seconds != 2.5 {
		t.Fatalf("events %+v", events)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL[Event](strings.NewReader("{\"engine\":\"e\"}\nnot json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestAggregatorTotalsAndSnapshot(t *testing.T) {
	a := NewAggregator()
	driveRun(a.Run("async/cpu-par(56)", "rcv1"))
	runs := a.Runs()
	if len(runs) != 1 {
		t.Fatalf("%d runs", len(runs))
	}
	r := runs[0]
	if r.Epochs != 2 || r.Seconds != 2.0 {
		t.Fatalf("totals %+v", r)
	}
	if got := r.Phase(PhaseGradient); math.Abs(got-1.3) > 1e-12 {
		t.Fatalf("gradient total %v", got)
	}
	if r.Counter(CounterWorkerUpdates) != 2000 || r.Counter(CounterCASRetries) != 31 {
		t.Fatalf("counters %+v", r.Counters)
	}
	if sum := r.EnginePhaseSum(); math.Abs(sum-2.0) > 1e-12 {
		t.Fatalf("engine phase sum %v (loss_eval must be excluded)", sum)
	}
	snap := a.Snapshot()
	for _, want := range []string{
		`sgd_epochs_total{engine="async/cpu-par(56)",dataset="rcv1"} 2`,
		`sgd_phase_seconds_total{engine="async/cpu-par(56)",dataset="rcv1",phase="update"} 0.5`,
		`sgd_counter_total{engine="async/cpu-par(56)",dataset="rcv1",counter="cas_retries"} 31`,
		`sgd_observation_count{engine="async/cpu-par(56)",dataset="rcv1",metric="batch_seconds"} 2`,
		"# TYPE sgd_phase_seconds_total counter",
	} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
	sum := a.Summary()
	for _, want := range []string{"async/cpu-par(56) on rcv1", "gradient 65.0%", "CAS retry rate"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestAggregatorFromTraceEventsMatchesLive(t *testing.T) {
	var buf bytes.Buffer
	tw := NewJSONLWriter[Event](&buf)
	driveRun(TraceRun(tw, "e", "d"))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL[Event](&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromTrace := NewAggregator()
	for _, ev := range events {
		fromTrace.AddEvent(ev)
	}
	live := NewAggregator()
	driveRun(live.Run("e", "d"))
	a, b := fromTrace.Runs()[0], live.Runs()[0]
	if a != b {
		t.Fatalf("trace-replayed stats differ from live:\n%+v\n%+v", a, b)
	}
}

func TestDistMergeAndMean(t *testing.T) {
	var d Dist
	d.observe(2)
	d.observe(4)
	var e Dist
	e.observe(1)
	e.merge(d)
	if e.Count != 3 || e.Min != 1 || e.Max != 4 || e.Mean() != 7.0/3 {
		t.Fatalf("%+v mean %v", e, e.Mean())
	}
	var zero Dist
	if zero.Mean() != 0 {
		t.Fatal("empty dist mean")
	}
	e.merge(Dist{}) // merging empty is a no-op
	if e.Count != 3 {
		t.Fatalf("empty merge changed count: %+v", e)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debugf("hidden %d\n", 1)
	l.Infof("shown %d\n", 2)
	l.Warnf("warned\n")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown 2") || !strings.Contains(out, "warned") {
		t.Fatalf("output %q", out)
	}
	if l.Enabled(LevelDebug) || !l.Enabled(LevelError) {
		t.Fatal("Enabled filter wrong")
	}
	var nilLogger *Logger
	nilLogger.Infof("must not panic")
	NewLogger(nil, LevelDebug).Infof("discarded")
}
