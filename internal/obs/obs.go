// Package obs is the engine-level observability layer of the reproduction.
// The paper's whole contribution is decomposing time-to-convergence into
// hardware and statistical efficiency; this package exposes the *why* behind
// each configuration's numbers: per-epoch phase timings (gradient compute,
// model update, synchronisation, loss evaluation), typed counters for the
// racy behaviour that drives the Hogwild findings (worker update counts, CAS
// retries, SIMT lost updates, coalesced memory transactions), and sampled
// distributions (batch latencies, divergent-warp fractions).
//
// The design constraint is that uninstrumented runs pay ~zero cost: every
// Recorder method takes only scalar arguments, so the no-op implementation
// (Nop) compiles to empty calls with no allocation — asserted by a benchmark
// in the test suite. Engines hold a Recorder that defaults to Nop via Or.
//
// Sinks:
//
//   - TraceWriter (fed by TraceRun) streams one JSONL event per epoch (see
//     Event for the schema); cmd/sgdtrace re-reads and summarises such files.
//   - Aggregator keeps in-memory totals per (engine, dataset) run and
//     renders a Prometheus-style text snapshot and per-engine summary
//     tables.
//   - Tee fans one recorder stream out to several sinks.
//
// The package is also the one home of the telemetry mechanisms the serving
// and span layers share: the JSONL codec (JSONLWriter, ReadJSONL), the
// latency ladder and histogram (LatencyBuckets, Hist), the Prometheus
// encoder (PromFamily, PromSample) and the -debug-addr server (ServeDebug).
//
// Loss evaluation is recorded under PhaseLossEval but is *excluded* from the
// modeled epoch seconds, following the paper's methodology: the phase-sum
// consistency check in cmd/sgdtrace compares gradient+update+barrier against
// the reported epoch time.
package obs

// Phase identifies one timed section of an engine epoch. Engines attribute
// their modeled epoch seconds to PhaseGradient, PhaseUpdate and PhaseBarrier
// such that the three sum to the value RunEpoch returns; PhaseLossEval is
// host wall-clock time spent by the convergence driver between epochs and is
// excluded from iteration timing.
type Phase uint8

// The phase taxonomy (see DESIGN.md §"Phase taxonomy").
const (
	// PhaseGradient is gradient computation: example streaming, model
	// gather, dot products / forward-backward passes.
	PhaseGradient Phase = iota
	// PhaseUpdate is landing updates in the model: scattered writes,
	// cache-coherence penalties, Axpy kernels, replica averaging.
	PhaseUpdate
	// PhaseBarrier is synchronisation and dispatch: per-epoch primitive
	// management of the synchronous engines, per-batch dispatch overhead,
	// kernel launches, replica-merge and parameter-server round waits.
	PhaseBarrier
	// PhaseLossEval is the between-epoch loss evaluation (excluded from
	// modeled time per the paper's methodology).
	PhaseLossEval
	numPhases
)

// phaseNames names each phase as it appears in traces and metric labels.
var phaseNames = [numPhases]string{
	PhaseGradient: "gradient",
	PhaseUpdate:   "update",
	PhaseBarrier:  "barrier",
	PhaseLossEval: "loss_eval",
}

// String names the phase.
func (p Phase) String() string { return enumName(phaseNames[:], int(p)) }

// Counter is a typed monotonic counter an engine increments during an epoch.
type Counter uint8

// The counter taxonomy.
const (
	// CounterWorkerUpdates counts model updates performed by the engine's
	// workers (examples for Hogwild, mini-batch applications for
	// Hogbatch).
	CounterWorkerUpdates Counter = iota
	// CounterCASRetries counts failed compare-and-swap attempts of the
	// lock-free atomic updater (model.CountingAtomicUpdater) — each retry
	// is one update the raw Hogwild discipline would have lost.
	CounterCASRetries
	// CounterBatches counts mini-batches (or linear-algebra batches)
	// executed in the epoch.
	CounterBatches
	// CounterGPUUpdates counts component updates emitted by SIMT lanes.
	CounterGPUUpdates
	// CounterGPULostIntra counts updates lost to intra-warp write
	// conflicts (last lane wins).
	CounterGPULostIntra
	// CounterGPULostInter counts updates lost to inter-warp write
	// conflicts within a lockstep round (last warp wins).
	CounterGPULostInter
	// CounterGPUApplied counts component updates that landed in the model.
	CounterGPUApplied
	// CounterGPURounds counts warp-lockstep rounds executed.
	CounterGPURounds
	// CounterGPUTransactions counts 32-byte global-memory transactions
	// issued after coalescing.
	CounterGPUTransactions
	// CounterGPURequests counts lane memory requests before coalescing
	// (the coalescing ratio is requests/transactions).
	CounterGPURequests
	// CounterChaosDrops counts gradient updates discarded by the fault
	// injector (internal/chaos) — computed but never applied.
	CounterChaosDrops
	// CounterChaosDups counts gradient updates the injector applied twice.
	CounterChaosDups
	// CounterChaosStaleReads counts updates computed against a stale
	// parameter snapshot served by the injector's bounded-staleness view.
	CounterChaosStaleReads
	// CounterChaosStraggled counts updates executed by workers the fault
	// plan slowed down (the straggler's share of the epoch).
	CounterChaosStraggled
	// CounterChaosShortfall counts model updates a deadlined synchronous
	// epoch applied with missing straggler contributions (the graceful-
	// degradation path: the barrier proceeded before every worker
	// reported).
	CounterChaosShortfall
	// CounterChaosPartitioned counts transport rounds a worker spent
	// partitioned from the parameter-server tier (pull served from cache,
	// pushes lost in flight).
	CounterChaosPartitioned
	// CounterServeRequests counts prediction requests admitted by the
	// inference micro-batcher (internal/serve).
	CounterServeRequests
	// CounterServeRejected counts prediction requests refused at admission
	// because the bounded queue was full (the HTTP 429 backpressure path).
	CounterServeRejected
	// CounterServeBatches counts micro-batches the serving path dispatched
	// (requests/batches is the achieved amortisation factor).
	CounterServeBatches
	// CounterServeSwaps counts model-snapshot hot-swaps published to the
	// serving atomic-pointer store.
	CounterServeSwaps
	// CounterServeQuantBatches counts serving micro-batches scored through
	// the int8 quantised path (vs the float64 path).
	CounterServeQuantBatches
	// CounterPSPulls counts shard parameter pulls served by the parameter-
	// server tier (internal/ps), cache fallbacks under partition excluded.
	CounterPSPulls
	// CounterPSPushes counts gradient pushes the parameter server applied
	// (duplicates deduplicated by sequence number and lost pushes excluded).
	CounterPSPushes
	// CounterPSStalePushes counts applied pushes whose gradient was computed
	// against a shard version older than the one it landed on — the
	// asynchronous tier's staleness exposure.
	CounterPSStalePushes
	// CounterPSStalenessSum accumulates the total staleness (shard versions
	// advanced between pull and apply) over applied pushes;
	// CounterPSStalenessSum / CounterPSPushes is the mean gradient staleness.
	CounterPSStalenessSum
	// CounterLocalRounds counts averaging rounds executed by the Local-SGD
	// family (internal/core LocalSGDEngine / AsyncLocalSGDEngine): barrier
	// reductions in sync mode, timer firings in async mode.
	CounterLocalRounds
	// CounterLocalStalenessSum accumulates, over the async Local-SGD timer's
	// firings, the local steps each replica had taken since it last adopted
	// a published average — the drift the aggregation folds back in;
	// CounterLocalStalenessSum / CounterLocalRounds is the mean per-round
	// drift across the replica set.
	CounterLocalStalenessSum
	// CounterLocalMergedComponents counts the model components the
	// synchronous Local-SGD barrier averaged in one epoch: the size of each
	// round's write set, or the model dimension d for a chaos round that
	// folded the whole vector. Divided by CounterLocalRounds·d it is the
	// touched fraction of the dataset/K/H combination as observed.
	CounterLocalMergedComponents
	// CounterHeteroCPUBatches counts batches the heterogeneous co-training
	// engines (internal/core HeteroEngine / HeteroAsyncEngine) assigned to
	// the CPU worker pool in one epoch.
	CounterHeteroCPUBatches
	// CounterHeteroGPUBatches counts batches the heterogeneous engines
	// dispatched to the simulated GPU in one epoch.
	CounterHeteroGPUBatches
	// CounterHeteroMerges counts weight-stream merges the heterogeneous
	// engines performed: one end-of-epoch weighted average in sync mode, one
	// apply-on-arrival blend per completed batch in async mode.
	CounterHeteroMerges
	// CounterHeteroCPUStalenessSum accumulates, over the async engine's CPU
	// merges, the number of GPU merges published since the CPU stream last
	// synchronised — how far behind the shared vector the CPU's private
	// weights had drifted at each blend.
	CounterHeteroCPUStalenessSum
	// CounterHeteroGPUStalenessSum is the mirror image: CPU merges published
	// between consecutive GPU blends. The two sums divided by
	// CounterHeteroMerges give the mean cross-backend staleness.
	CounterHeteroGPUStalenessSum
	numCounters
)

// counterNames names each counter as it appears in traces and metric labels.
var counterNames = [numCounters]string{
	CounterWorkerUpdates:         "worker_updates",
	CounterCASRetries:            "cas_retries",
	CounterBatches:               "batches",
	CounterGPUUpdates:            "gpu_updates",
	CounterGPULostIntra:          "gpu_lost_intra",
	CounterGPULostInter:          "gpu_lost_inter",
	CounterGPUApplied:            "gpu_applied",
	CounterGPURounds:             "gpu_rounds",
	CounterGPUTransactions:       "gpu_transactions",
	CounterGPURequests:           "gpu_requests",
	CounterChaosDrops:            "chaos_drops",
	CounterChaosDups:             "chaos_dups",
	CounterChaosStaleReads:       "chaos_stale_reads",
	CounterChaosStraggled:        "chaos_straggled",
	CounterChaosShortfall:        "chaos_shortfall",
	CounterChaosPartitioned:      "chaos_partitioned",
	CounterServeRequests:         "serve_requests",
	CounterServeRejected:         "serve_rejected",
	CounterServeBatches:          "serve_batches",
	CounterServeSwaps:            "serve_swaps",
	CounterServeQuantBatches:     "serve_quant_batches",
	CounterPSPulls:               "ps_pulls",
	CounterPSPushes:              "ps_pushes",
	CounterPSStalePushes:         "ps_stale_pushes",
	CounterPSStalenessSum:        "ps_staleness_sum",
	CounterLocalRounds:           "local_rounds",
	CounterLocalStalenessSum:     "local_staleness_sum",
	CounterLocalMergedComponents: "local_merged_components",
	CounterHeteroCPUBatches:      "hetero_cpu_batches",
	CounterHeteroGPUBatches:      "hetero_gpu_batches",
	CounterHeteroMerges:          "hetero_merges",
	CounterHeteroCPUStalenessSum: "hetero_cpu_staleness_sum",
	CounterHeteroGPUStalenessSum: "hetero_gpu_staleness_sum",
}

// String names the counter.
func (c Counter) String() string { return enumName(counterNames[:], int(c)) }

// Metric is a sampled value tracked as a distribution (count/sum/min/max).
type Metric uint8

// The observation taxonomy.
const (
	// MetricBatchSeconds is the modeled latency of one mini-batch
	// (Hogbatch).
	MetricBatchSeconds Metric = iota
	// MetricDivergentWarpFrac is the fraction of issued lane slots wasted
	// to warp divergence in one epoch: 1 - useful flops / lockstep ops.
	MetricDivergentWarpFrac
	// MetricWorkerShare is the per-worker share of an epoch's updates
	// (Hogwild work balance).
	MetricWorkerShare
	// MetricChaosSlowdown is the per-epoch modeled-time stretch a fault
	// plan inflicted (faulted epoch seconds / healthy epoch seconds).
	MetricChaosSlowdown
	// MetricServeBatchSize is the request count of one dispatched inference
	// micro-batch (internal/serve).
	MetricServeBatchSize
	// MetricServeQueueDepth is the admission-queue depth sampled at each
	// micro-batch dispatch.
	MetricServeQueueDepth
	// MetricServeLatency is one request's end-to-end serving latency in
	// host seconds (queue wait + batch compute); quantiles come from the
	// serving layer's own histogram, this distribution carries
	// count/sum/min/max into traces.
	MetricServeLatency
	// MetricHeteroGPUShare is the realised fraction of an epoch's batches
	// the heterogeneous engines ran on the GPU backend — the adaptive split
	// ratio as actually executed, one observation per epoch.
	MetricHeteroGPUShare
	numMetrics
)

// metricNames names each metric as it appears in traces and metric labels.
var metricNames = [numMetrics]string{
	MetricBatchSeconds:      "batch_seconds",
	MetricDivergentWarpFrac: "divergent_warp_frac",
	MetricWorkerShare:       "worker_share",
	MetricChaosSlowdown:     "chaos_slowdown",
	MetricServeBatchSize:    "serve_batch_size",
	MetricServeQueueDepth:   "serve_queue_depth",
	MetricServeLatency:      "serve_latency_seconds",
	MetricHeteroGPUShare:    "hetero_gpu_share",
}

// String names the metric.
func (m Metric) String() string { return enumName(metricNames[:], int(m)) }

// Recorder receives one engine run's instrumentation stream. Engines call
// Phase/Add/Observe while executing an epoch; whoever drives the engine (the
// convergence driver or the harness) closes each epoch with EndEpoch, which
// carries the engine's reported modeled seconds for that epoch.
//
// All methods take scalar arguments only, so the no-op path allocates
// nothing. Implementations must be safe for concurrent use; engines
// nevertheless aggregate per-worker data locally and record once per epoch
// to keep hot loops clean.
type Recorder interface {
	// Phase attributes modeled (or, for PhaseLossEval, wall-clock) seconds
	// to a phase of the current epoch.
	Phase(p Phase, seconds float64)
	// Add increments a typed counter for the current epoch.
	Add(c Counter, delta int64)
	// Observe records one sample of a distribution metric.
	Observe(m Metric, v float64)
	// EndEpoch closes the current epoch, recording the engine's reported
	// modeled seconds for it.
	EndEpoch(modeledSeconds float64)
}

// Nop is the zero-cost default Recorder: every method is an empty body.
type Nop struct{}

// Phase implements Recorder.
func (Nop) Phase(Phase, float64) {}

// Add implements Recorder.
func (Nop) Add(Counter, int64) {}

// Observe implements Recorder.
func (Nop) Observe(Metric, float64) {}

// EndEpoch implements Recorder.
func (Nop) EndEpoch(float64) {}

// Or returns r, or Nop when r is nil, so callers can invoke methods
// unconditionally.
func Or(r Recorder) Recorder {
	if r == nil {
		return Nop{}
	}
	return r
}

// Enabled reports whether r actually records anything; engines use it to
// skip instrumentation work that is not scalar-cheap.
func Enabled(r Recorder) bool {
	if r == nil {
		return false
	}
	if _, nop := r.(Nop); nop {
		return false
	}
	return true
}

// tee fans a recorder stream out to several sinks.
type tee struct{ rs []Recorder }

// Tee returns a Recorder forwarding every call to each enabled recorder in
// rs; nil and Nop entries are dropped, and degenerate cases collapse (no
// sinks -> Nop, one sink -> that sink).
func Tee(rs ...Recorder) Recorder {
	live := make([]Recorder, 0, len(rs))
	for _, r := range rs {
		if Enabled(r) {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return &tee{rs: live}
}

// Phase implements Recorder.
func (t *tee) Phase(p Phase, seconds float64) {
	for _, r := range t.rs {
		r.Phase(p, seconds)
	}
}

// Add implements Recorder.
func (t *tee) Add(c Counter, delta int64) {
	for _, r := range t.rs {
		r.Add(c, delta)
	}
}

// Observe implements Recorder.
func (t *tee) Observe(m Metric, v float64) {
	for _, r := range t.rs {
		r.Observe(m, v)
	}
}

// EndEpoch implements Recorder.
func (t *tee) EndEpoch(sec float64) {
	for _, r := range t.rs {
		r.EndEpoch(sec)
	}
}

// enumName returns names[i], or "unknown" out of range.
func enumName(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return "unknown"
}

// enumIndex inverts String for one of the enums above: the value named s,
// with ok false for an unknown name.
func enumIndex[E ~uint8](names []string, s string) (e E, ok bool) {
	for i, n := range names {
		if n == s {
			return E(i), true
		}
	}
	return 0, false
}
