package main

import (
	"repro/internal/obs"
	"repro/internal/span"
)

// goldenEvents drives the fixed epoch stream every epoch-trace golden under
// testdata/ is built from: three runs covering every summary line (phase
// shares, loss_eval, GPU lost-update and coalescing rates) and two
// observation metrics.
func goldenEvents(run func(engine, dataset string) obs.Recorder) {
	r := run("sync/cpu-par(8)", "w8a")
	for ep := 0; ep < 3; ep++ {
		r.Phase(obs.PhaseGradient, 0.7)
		r.Phase(obs.PhaseUpdate, 0.2)
		r.Phase(obs.PhaseBarrier, 0.1)
		r.Phase(obs.PhaseLossEval, 0.005)
		r.Add(obs.CounterWorkerUpdates, 100)
		r.Add(obs.CounterBatches, 4)
		r.Observe(obs.MetricBatchSeconds, 0.01*float64(ep+1))
		r.Observe(obs.MetricWorkerShare, 0.5)
		r.EndEpoch(1.0)
	}
	r = run("async/cpu-par(56)", "w8a")
	for ep := 0; ep < 2; ep++ {
		r.Phase(obs.PhaseGradient, 0.3)
		r.Phase(obs.PhaseUpdate, 0.15)
		r.Add(obs.CounterWorkerUpdates, 5000)
		r.Observe(obs.MetricWorkerShare, 0.25)
		r.Observe(obs.MetricChaosSlowdown, 1.5)
		r.EndEpoch(0.45)
	}
	r = run("async/gpu", "covtype")
	r.Phase(obs.PhaseGradient, 0.002)
	r.Phase(obs.PhaseBarrier, 0.0005)
	r.Add(obs.CounterGPUUpdates, 1000)
	r.Add(obs.CounterGPULostIntra, 12)
	r.Add(obs.CounterGPULostInter, 3)
	r.Add(obs.CounterGPUTransactions, 40)
	r.Add(obs.CounterGPURequests, 320)
	r.Observe(obs.MetricDivergentWarpFrac, 0.125)
	r.EndEpoch(0.0025)
}

// goldenSpans is the fixed request-trace set every span golden under
// testdata/ is built from: twelve traces with distinct wall times, nested
// shards, every keep reason, chaos faults and one unattributed tail.
func goldenSpans() []span.TraceRec {
	var out []span.TraceRec
	for i := 0; i < 9; i++ {
		dur := 1000 + 37*float64(i)
		out = append(out, span.TraceRec{
			Trace: "00000000000000" + string(rune('a'+i)) + "1", Root: "predict", DurUS: dur, Keep: span.KeepHead,
			Spans: []span.SpanRec{
				{Name: "admission", StartUS: 0, DurUS: 5, Worker: -1},
				{Name: "queue_wait", StartUS: 5, DurUS: 395, Worker: -1},
				{Name: "score", StartUS: 400, DurUS: dur - 400, Worker: -1},
				{Name: "score/shard", Parent: "score", StartUS: 400, DurUS: 300, Worker: i % 2},
				{Name: "score/shard", Parent: "score", StartUS: 410, DurUS: 280, Worker: -1},
			},
		})
	}
	out = append(out,
		span.TraceRec{
			Trace: "00000000000000f1", Root: "predict", DurUS: 52000, Keep: span.KeepFault, Fault: "straggler",
			Spans: []span.SpanRec{
				{Name: "queue_wait", StartUS: 0, DurUS: 2000, Worker: -1},
				{Name: "score", StartUS: 2000, DurUS: 3000, Worker: -1},
				{Name: "chaos_stall", StartUS: 5000, DurUS: 40000, Worker: -1, Fault: "straggler"},
			},
		},
		span.TraceRec{
			Trace: "00000000000000f2", Root: "predict", DurUS: 1500000, Keep: span.KeepSlow,
			Spans: []span.SpanRec{
				{Name: "queue_wait", StartUS: 0, DurUS: 1400000, Worker: -1},
				{Name: "score", StartUS: 1400000, DurUS: 100000, Worker: -1},
				{Name: "score/shard", Parent: "score", StartUS: 1400000, DurUS: 90000, Worker: 1},
			},
		},
		span.TraceRec{
			Trace: "00000000000000f3", Root: "predict", DurUS: 800, Keep: span.KeepError, Err: "drop", Fault: "drop",
			Spans: []span.SpanRec{
				{Name: "admission", StartUS: 0, DurUS: 4, Worker: -1},
				{Name: "finalize", StartUS: 4, DurUS: 796, Worker: -1, Fault: "drop"},
			},
		},
	)
	return out
}
