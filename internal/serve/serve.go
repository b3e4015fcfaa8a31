// Package serve is the online inference side of the reproduction: it turns
// a trained (or continuously training) model into a prediction service, the
// "serves heavy traffic" half of the ROADMAP's north star.
//
// Two ideas from the training study transfer directly:
//
//   - Micro-batching. The paper's central batching insight is that
//     mini-batch size trades per-update overhead against statistical
//     efficiency; on the serving side the same per-dispatch overhead (queue
//     hand-off, snapshot load, CSR assembly, worker-pool dispatch) is
//     amortised by batching concurrent requests. The Batcher queues
//     requests and flushes on max-batch-size or a max-latency deadline, so
//     throughput scales with load while an idle server still answers every
//     request within the deadline.
//
//   - Lock-free snapshot hot-swap. HOGWILD! (Niu et al., 2011) publishes
//     model updates to concurrent readers without locks; the serving mirror
//     is an atomic-pointer Store of immutable Snapshots. A background
//     trainer (Trainer, running any core.Engine) publishes a fresh copy of
//     the weights per epoch; every dispatched batch loads the pointer once,
//     so all requests of a batch score against one consistent version and
//     readers never observe a torn model.
//
// Stages and their instrumentation (through internal/obs): admission
// (bounded queue, CounterServeRejected on 429 backpressure), batching
// (MetricServeBatchSize, MetricServeQueueDepth), compute (pool-dispatched
// scoring through model.Scorer, PhaseGradient seconds), and swap
// (CounterServeSwaps). End-to-end latency lands both in MetricServeLatency
// and in the serving layer's own log-bucketed histogram (Stats), which is
// what the p50/p99 numbers in /stats, /metrics and cmd/sgdload reports come
// from.
//
// Fault plans from internal/chaos thread through the dispatch path
// (straggler batches, injected request drops), so degradation under load is
// a measurable experiment exactly like the training storms of `sgdgate chaos`.
// See DESIGN.md §12 and docs/ARCHITECTURE.md for the serving data flow;
// cmd/sgdserve and cmd/sgdload are the binaries on top.
package serve

import (
	"errors"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/span"
)

// Errors surfaced to callers of Core.Predict (the HTTP layer maps them to
// status codes).
var (
	// ErrOverloaded means the admission queue was full; the client should
	// back off (HTTP 429).
	ErrOverloaded = errors.New("serve: queue full, backpressure")
	// ErrNoModel means no snapshot has been published yet (HTTP 503).
	ErrNoModel = errors.New("serve: no model snapshot published")
	// ErrInjectedDrop is the chaos plan discarding a request on the serving
	// path (HTTP 503); it only occurs under an active fault plan.
	ErrInjectedDrop = errors.New("serve: request dropped by fault plan")
	// ErrBadFeatures means a feature index was negative or out of range for
	// the served model (HTTP 400).
	ErrBadFeatures = errors.New("serve: feature index out of range")
	// ErrClosed means the core was shut down while the request was queued.
	ErrClosed = errors.New("serve: server closed")
)

// Config sizes the serving core. The zero value is unusable; call
// (*Config).withDefaults via NewCore which fills every field.
type Config struct {
	// MaxBatch is the largest micro-batch one dispatch scores (1 disables
	// batching — every request pays the full dispatch overhead, the
	// baseline cmd/sgdload's A/B report compares against). Default 64.
	MaxBatch int
	// MaxDelay is the deadline flush: the oldest queued request never
	// waits longer than this for its batch to fill. Default 2ms.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded instead of queueing unbounded latency. Default
	// 8*MaxBatch.
	QueueDepth int
	// Workers caps the pool parallelism of one batch's scoring. Default:
	// the pool size.
	Workers int
	// Grain is the minimum number of requests per pool chunk, so tiny
	// batches of cheap models score inline instead of paying dispatch.
	// Default 16.
	Grain int
	// Pool is the worker pool scoring dispatches on (nil = the shared
	// process pool).
	Pool *pool.Pool
	// Rec receives per-batch observability events (one obs "epoch" per
	// dispatched micro-batch); nil = no recording.
	Rec obs.Recorder
	// Plan is the serving-path fault plan (zero Plan = healthy). Drops
	// discard admitted requests after compute; stragglers stretch a
	// worker-share of batch dispatches by the plan's factor.
	Plan chaos.Plan
	// ChaosSeed seeds the plan's deterministic fate streams.
	ChaosSeed int64
	// Tracer, when non-nil, opens a request-level span trace per admitted
	// prediction: admission, queue wait, batch assembly, scoring (with
	// per-worker shards), chaos stalls and completion all become named
	// spans rooted at the request's trace ID. Nil = no tracing, no cost
	// beyond nil checks.
	Tracer *span.Tracer
	// SLO, when non-nil, folds every request outcome (end-to-end latency,
	// server-side errors) into multi-window burn-rate objectives surfaced
	// at /slo and in /metrics. Client errors (ErrBadFeatures) are not
	// recorded: they spend no server budget.
	SLO *span.SLO
	// Quantized scores batches through the int8 quantised weights (DESIGN
	// §14) when the served model supports it (model.QuantScorer — the
	// linear models do, the MLP does not; unsupported models silently keep
	// the float64 path and Config() reports Quantized=false). The store is
	// switched to attach the int8 representation at every publish.
	Quantized bool
}

// withDefaults returns cfg with every unset knob at its default.
func (cfg Config) withDefaults() Config {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8 * cfg.MaxBatch
	}
	if cfg.Pool == nil {
		cfg.Pool = pool.Default()
	}
	if cfg.Workers <= 0 || cfg.Workers > cfg.Pool.Size() {
		cfg.Workers = cfg.Pool.Size()
	}
	if cfg.Grain <= 0 {
		cfg.Grain = 16
	}
	return cfg
}

// Core is the transport-independent serving engine: admission queue,
// micro-batcher, snapshot store and stats. Server wraps it with HTTP;
// cmd/sgdload drives it directly for the batching A/B measurement.
type Core struct {
	cfg    Config
	store  *Store
	scorer model.Scorer
	quant  model.QuantScorer // non-nil iff cfg.Quantized
	stats  *Stats
	rec    obs.Recorder
	faults *faults
	tracer *span.Tracer
	slo    *span.SLO

	queue    chan *request
	scratch  sync.Pool // of model.Scratch for the served model
	reqPool  sync.Pool // of *request
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewCore builds and starts the serving core for one model. The store may
// already hold a snapshot (offline serving) or be filled later by a Trainer
// (online serving); predictions before the first publish fail with
// ErrNoModel. The returned core's dispatcher goroutine runs until Close.
func NewCore(scorer model.Scorer, store *Store, cfg Config) *Core {
	cfg = cfg.withDefaults()
	var quant model.QuantScorer
	if cfg.Quantized {
		if qs, ok := scorer.(model.QuantScorer); ok {
			quant = qs
			store.SetQuantize(true)
			// A snapshot published before quantised mode was switched on
			// (offline serving) carries no int8 twin, and snapshots are
			// immutable — so republish a quantised copy under the next
			// version instead of mutating it in place.
			if sn := store.Load(); sn != nil && sn.Quant == nil && len(sn.Weights) > 0 {
				requant := *sn
				requant.PublishedUnixNano = 0
				store.Publish(&requant)
			}
		} else {
			cfg.Quantized = false // e.g. MLP: score is nonlinear in w
		}
	}
	c := &Core{
		quant:  quant,
		cfg:    cfg,
		store:  store,
		scorer: scorer,
		stats:  newStats(store),
		rec:    obs.Or(cfg.Rec),
		faults: newFaults(cfg.Plan, cfg.ChaosSeed, cfg.Workers),
		tracer: cfg.Tracer,
		slo:    cfg.SLO,
		queue:  make(chan *request, cfg.QueueDepth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.scratch.New = func() any { return scorer.NewScratch() }
	c.reqPool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	go c.dispatch()
	return c
}

// Store returns the snapshot store the core serves from.
func (c *Core) Store() *Store { return c.store }

// Stats returns the live serving statistics.
func (c *Core) Stats() *Stats { return c.stats }

// Config returns the effective (defaulted) configuration.
func (c *Core) Config() Config { return c.cfg }

// Tracer returns the request tracer (nil when tracing is off).
func (c *Core) Tracer() *span.Tracer { return c.tracer }

// SLO returns the burn-rate engine (nil when no objectives are configured).
func (c *Core) SLO() *span.SLO { return c.slo }

// errKind names a serving error for trace records ("" for success); the
// stable short forms appear in TraceRec.Err and keep-reason decisions.
func errKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrNoModel):
		return "no_model"
	case errors.Is(err, ErrInjectedDrop):
		return "injected_drop"
	case errors.Is(err, ErrBadFeatures):
		return "bad_features"
	case errors.Is(err, ErrClosed):
		return "closed"
	default:
		return "internal"
	}
}

// Close stops the dispatcher; queued requests are failed with ErrClosed.
// Double Close is safe.
func (c *Core) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}
