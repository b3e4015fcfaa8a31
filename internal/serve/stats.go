package serve

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// Stats aggregates the serving-path counters and distributions. All methods
// are safe for concurrent use; the hot-path cost is a few atomic adds.
type Stats struct {
	store *Store

	requests     atomic.Int64 // admitted
	rejected     atomic.Int64 // ErrOverloaded at admission
	dropped      atomic.Int64 // chaos-injected drops
	batches      atomic.Int64 // dispatched micro-batches
	quantBatches atomic.Int64 // micro-batches scored through the int8 path

	latency   *obs.Hist // end-to-end seconds (queue wait + compute)
	batchSize *obs.Hist // requests per dispatched batch
	queueSum  atomic.Int64
}

func newStats(store *Store) *Stats {
	bounds := make([]float64, 0, 13)
	for b := 1; b <= 4096; b *= 2 {
		bounds = append(bounds, float64(b))
	}
	return &Stats{store: store, latency: obs.NewHist(obs.LatencyBuckets), batchSize: obs.NewHist(bounds)}
}

// Report is the JSON shape of one stats snapshot (/stats, sgdload reports).
type Report struct {
	Requests     int64   `json:"requests"`
	Rejected     int64   `json:"rejected"`
	Dropped      int64   `json:"dropped,omitempty"`
	Batches      int64   `json:"batches"`
	QuantBatches int64   `json:"quant_batches,omitempty"`
	Swaps        int64   `json:"swaps"`
	ModelVersion int64   `json:"model_version"`
	AvgBatch     float64 `json:"avg_batch"`
	MaxBatch     float64 `json:"max_batch"`
	AvgQueue     float64 `json:"avg_queue_depth"`
	LatencyP50   float64 `json:"latency_p50_s"`
	LatencyP90   float64 `json:"latency_p90_s"`
	LatencyP99   float64 `json:"latency_p99_s"`
	LatencyMax   float64 `json:"latency_max_s"`
	LatencyMean  float64 `json:"latency_mean_s"`
}

// Snapshot returns the current aggregate.
func (s *Stats) Snapshot() Report {
	r := Report{
		Requests:     s.requests.Load(),
		Rejected:     s.rejected.Load(),
		Dropped:      s.dropped.Load(),
		Batches:      s.batches.Load(),
		QuantBatches: s.quantBatches.Load(),
		AvgBatch:     s.batchSize.Mean(),
		MaxBatch:     s.batchSize.Max(),
		LatencyP50:   s.latency.Quantile(0.50),
		LatencyP90:   s.latency.Quantile(0.90),
		LatencyP99:   s.latency.Quantile(0.99),
		LatencyMax:   s.latency.Max(),
		LatencyMean:  s.latency.Mean(),
	}
	if b := r.Batches; b > 0 {
		r.AvgQueue = float64(s.queueSum.Load()) / float64(b)
	}
	if s.store != nil {
		r.Swaps = s.store.Swaps()
		if sn := s.store.Load(); sn != nil {
			r.ModelVersion = sn.Version
		}
	}
	return r
}

// WriteProm renders the aggregate in the Prometheus text exposition format
// under the sgd_serve_ prefix (served next to the training aggregator's
// sgd_ families on /metrics).
func (s *Stats) WriteProm(w io.Writer) {
	r := s.Snapshot()
	for _, m := range []struct {
		name, typ, help string
		v               any
	}{
		{"sgd_serve_requests_total", "counter", "Admitted prediction requests.", r.Requests},
		{"sgd_serve_rejected_total", "counter", "Requests refused by admission control (429).", r.Rejected},
		{"sgd_serve_dropped_total", "counter", "Requests dropped by the active fault plan.", r.Dropped},
		{"sgd_serve_batches_total", "counter", "Dispatched inference micro-batches.", r.Batches},
		{"sgd_serve_quant_batches_total", "counter", "Micro-batches scored through the int8 quantised path.", r.QuantBatches},
		{"sgd_serve_snapshot_swaps_total", "counter", "Model snapshot hot-swaps.", r.Swaps},
		{"sgd_serve_model_version", "gauge", "Current served snapshot version.", r.ModelVersion},
		{"sgd_serve_batch_size_avg", "gauge", "Mean requests per dispatched batch.", r.AvgBatch},
	} {
		obs.PromFamily(w, m.name, m.typ, m.help)
		obs.PromSample(w, m.name, m.v)
	}
	obs.PromFamily(w, "sgd_serve_latency_seconds", "gauge", "End-to-end request latency quantiles.")
	for _, q := range []struct {
		quantile string
		v        float64
	}{{"0.5", r.LatencyP50}, {"0.9", r.LatencyP90}, {"0.99", r.LatencyP99}, {"1", r.LatencyMax}} {
		obs.PromSample(w, "sgd_serve_latency_seconds", q.v, "quantile", q.quantile)
	}
	// The same distributions again as standard cumulative histograms, so
	// off-the-shelf tooling (histogram_quantile, burn-rate recording rules)
	// works without knowing the custom quantile-gauge families above.
	s.latency.WriteProm(w, "sgd_serve_request_duration_seconds", "End-to-end request latency.")
	s.batchSize.WriteProm(w, "sgd_serve_batch_size", "Requests per dispatched micro-batch.")
}
