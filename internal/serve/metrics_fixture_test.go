package serve

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/span"
)

// fixedMetricsServer builds a Server over a fixed serving state: serve Stats,
// a span Tracer (with a truncated span), a two-objective SLO and the training
// aggregator hooked as the extra /metrics families — the shape sgdserve
// serves. engine labels the aggregator's runs; withObs adds three
// observation metrics to them.
func fixedMetricsServer(engine string, withObs bool) *Server {
	st := newStats(nil)
	st.requests.Add(1234)
	st.rejected.Add(5)
	st.dropped.Add(2)
	st.batches.Add(100)
	st.quantBatches.Add(7)
	st.queueSum.Add(300)
	for i := 0; i < 100; i++ {
		st.batchSize.Record(float64(1 + i%16))
	}
	for i := 0; i < 1234; i++ {
		st.latency.Record(1e-4 * float64(1+i%97))
	}

	tr := span.NewTracer(span.Config{SampleRate: 1, Seed: 1, MaxSpans: 1}, nil)
	tr.Start("predict", 0).Finish("")
	tr.Start("predict", 0).Finish("drop")
	x := tr.Start("predict", 0)
	x.Record("a", "", x.Epoch(), x.Epoch(), -1, "")
	x.Record("b", "", x.Epoch(), x.Epoch(), -1, "")
	x.Annotate("straggler")
	x.Finish("")

	objs, _ := span.ParseObjectives("latency<=250ms@99,errors@99.9")
	slo := span.NewSLO(span.SLOConfig{Objectives: objs, FastWindow: time.Hour})
	for i := 0; i < 200; i++ {
		slo.Record(2e-3*float64(i), i%50 == 0)
	}

	agg := obs.NewAggregator()
	for ep := 0; ep < 2; ep++ {
		ev := obs.Event{
			Engine: engine, Dataset: "covtype", Epoch: ep, Seconds: 0.5,
			Phases:   map[string]float64{"gradient": 0.3, "barrier": 0.2},
			Counters: map[string]int64{"serve_requests": 600, "serve_batches": 50},
		}
		if withObs {
			ev.Observations = map[string]obs.Dist{
				"serve_batch_size":      {Count: 50, Sum: 600, Min: 1, Max: 16},
				"serve_latency_seconds": {Count: 600, Sum: 1.2, Min: 1e-4, Max: 0.01},
				"serve_queue_depth":     {Count: 50, Sum: 75, Min: 0, Max: 6},
			}
		}
		agg.AddEvent(ev)
	}
	agg.AddEvent(obs.Event{Engine: "hogwild", Dataset: "w8a", Seconds: 1, Phases: map[string]float64{"update": 1}})

	srv := NewServer(&Core{stats: st, tracer: tr, slo: slo})
	srv.SetExtraMetrics(agg.Snapshot)
	return srv
}

// scrapeMetrics renders srv's /metrics body through its HTTP handler.
func scrapeMetrics(t *testing.T, srv *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}
