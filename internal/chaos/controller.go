package chaos

import (
	"runtime"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pool"
)

// Controller is what an engine holds to run its async workers under fault
// injection and/or deterministic scheduling. A nil *Controller is inert:
// every query on it reports "no chaos", and its Run hands each body the
// healthy nil *Worker, so an engine writes its worker loop once.
type Controller struct {
	// Plan is the fault mix to inject.
	Plan Plan
	// Seed derives every injector stream and the sequencer's interleaving;
	// same seed, same faults, same schedule.
	Seed int64
	// Sequential runs worker bodies on a pool.Sequencer: single-threaded,
	// virtual-time paced, exactly replayable. Off, bodies run with real
	// concurrency on the engine's pool and only the fault decisions stay
	// deterministic (per-worker streams), not the interleaving.
	Sequential bool
	// SSPBound, when positive, is the stale-synchronous-parallel bound of
	// the graceful-degradation Hogwild variant: a worker more than
	// SSPBound updates ahead of the slowest is blocked until its peers
	// catch up. 0 disables the bound (classic Hogwild).
	SSPBound int
	// Deadline, when positive, is the synchronous engines' straggler
	// mitigation: the per-epoch barrier fires after Deadline times the
	// healthy epoch instead of waiting out the straggler's full stretch,
	// and the update proceeds with the gradient contributions received by
	// then (the missing share is counted as CounterChaosShortfall). 0
	// means wait forever — classic BSP, the fragile baseline.
	Deadline float64
	// Workers is the modeled worker count used for slowdown/shortfall
	// arithmetic by engines that do not dispatch through Run (the
	// synchronous barrier path). Run sets it from its argument.
	Workers int

	inj          *Injector
	lastSlowdown float64
}

// Enabled reports whether the controller changes anything: a fault plan, a
// deterministic schedule, or an SSP bound.
func (c *Controller) Enabled() bool {
	return c != nil && (c.Plan.Active() || c.Sequential || c.SSPBound > 0)
}

// New builds a controller for a plan and seed.
func New(plan Plan, seed int64) *Controller {
	return &Controller{Plan: plan, Seed: seed}
}

// Injector returns the controller's (lazily built) injector.
func (c *Controller) Injector() *Injector {
	if c.inj == nil {
		c.inj = NewInjector(c.Plan, c.Seed)
	}
	return c.inj
}

// Drain flushes the epoch's fault counts to the recorder (see
// Injector.Drain) and records the last observed schedule slowdown.
func (c *Controller) Drain(rec obs.Recorder) {
	if c == nil {
		return
	}
	c.Injector().Drain(rec)
	if c.lastSlowdown > 1 {
		obs.Or(rec).Observe(obs.MetricChaosSlowdown, c.lastSlowdown)
	}
}

// Slowdown returns the virtual-time epoch stretch observed by the last Run
// (makespan over ideal balanced time, >= 1), or the plan's analytic async
// slowdown when Run has not executed. Engines multiply their modeled epoch
// seconds by it.
func (c *Controller) Slowdown() float64 {
	if c == nil {
		return 1
	}
	if c.lastSlowdown > 0 {
		return c.lastSlowdown
	}
	return c.Plan.AsyncSlowdown(c.Workers)
}

// sspState is the shared progress board of one Run: per-worker update
// counts, read by the SSP gates.
type sspState struct {
	prog []atomic.Int64
}

func (st *sspState) min() int64 {
	m := int64(-1)
	for i := range st.prog {
		if v := st.prog[i].Load(); m < 0 || v < m {
			m = v
		}
	}
	return m
}

// Worker is the per-worker chaos handle an engine body consults: fault
// fates per update, staleness-bounded parameter views, and the scheduling
// step that paces stragglers and enforces the SSP bound. A nil *Worker is
// the healthy worker: View returns the live vector, Fate applies every
// update, and Step paces nothing.
type Worker struct {
	// Stream is the worker's deterministic fault stream.
	Stream *Stream

	k     int
	turn  *pool.Turn // nil when running with real concurrency
	st    *sspState
	bound int
	clock float64

	staleBuf     []float64
	sinceRefresh int
}

// Fate decides the next update's fate (apply, drop, duplicate).
func (w *Worker) Fate() Fate {
	if w == nil {
		return FateApply
	}
	return w.Stream.Fate()
}

// View returns the parameter vector the worker should read: live when the
// plan has no staleness, otherwise a private snapshot refreshed every
// Staleness updates, so gradients are computed against state up to that
// many of the worker's own updates old while writes still land live.
func (w *Worker) View(live []float64) []float64 {
	if w == nil {
		return live
	}
	s := w.Stream.Staleness()
	if s <= 0 {
		return live
	}
	if w.staleBuf == nil || w.sinceRefresh >= s {
		if cap(w.staleBuf) < len(live) {
			w.staleBuf = make([]float64, len(live))
		}
		w.staleBuf = w.staleBuf[:len(live)]
		copy(w.staleBuf, live)
		w.sinceRefresh = 0
	} else {
		w.Stream.CountStale()
	}
	w.sinceRefresh++
	return w.staleBuf
}

// Step closes one update: it advances the worker's progress (the SSP
// board), charges the straggler-aware virtual cost, and yields. Under the
// sequencer that is the deterministic scheduling point; under real
// concurrency a straggler briefly yields the OS thread per unit of extra
// cost so its claim rate drops, and an over-bound SSP worker spins until
// the slowest catches up.
func (w *Worker) Step() {
	if w == nil {
		return
	}
	cost := w.Stream.Cost()
	w.clock += cost
	if w.st == nil {
		return // standalone worker: fate/staleness only, no scheduling
	}
	w.st.prog[w.k].Add(1)
	if w.turn != nil {
		w.turn.Tick(cost)
		return
	}
	for i := 1; i < int(cost); i++ {
		runtime.Gosched()
	}
	if w.bound > 0 {
		for w.st.prog[w.k].Load()-w.st.min() > int64(w.bound) {
			runtime.Gosched()
		}
	}
}

// StandaloneWorker returns worker k's chaos handle for engines that manage
// their own dispatch (the serial and simulator-driven paths): fates,
// staleness views and fault tallies work as under Run, but Step paces
// nothing and the SSP bound does not apply. The caller flushes the stream
// (Stream.Flush) before draining.
func (c *Controller) StandaloneWorker(k int) *Worker {
	return &Worker{Stream: c.Injector().Worker(k), k: k}
}

// Run executes n worker bodies under the controller's regime and records
// the observed virtual-time slowdown. In Sequential mode the bodies share
// one OS thread under the seeded virtual-time scheduler; otherwise they
// dispatch on p (nil = the shared process pool) with real concurrency.
// body(k, w) must perform worker k's whole work loop, calling w.Step once
// per model update. An inert controller (nil, or not Enabled) runs the
// bodies on p with the healthy nil *Worker and records nothing.
func (c *Controller) Run(p *pool.Pool, n int, body func(k int, w *Worker)) {
	if n < 1 {
		n = 1
	}
	if p == nil {
		p = pool.Default()
	}
	if !c.Enabled() {
		p.RunFunc(n, n, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				body(k, nil)
			}
		})
		return
	}
	c.Workers = n
	in := c.Injector()
	st := &sspState{prog: make([]atomic.Int64, n)}
	workers := make([]*Worker, n)
	for k := 0; k < n; k++ {
		workers[k] = &Worker{Stream: in.Worker(k), k: k, st: st, bound: c.SSPBound}
	}
	if c.Sequential {
		s := pool.NewSequencer(c.Seed)
		for k := 0; k < n; k++ {
			k := k
			s.Go(func(t *pool.Turn) {
				w := workers[k]
				w.turn = t
				if c.SSPBound > 0 {
					t.Gate(func() bool {
						return st.prog[k].Load()-st.min() <= int64(c.SSPBound)
					})
				}
				body(k, w)
			})
		}
		s.Run()
	} else {
		p.RunFunc(n, n, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				body(k, workers[k])
			}
		})
	}
	var updates int64
	var makespan float64
	for k, w := range workers {
		w.Stream.Flush()
		updates += st.prog[k].Load()
		if w.clock > makespan {
			makespan = w.clock
		}
	}
	// The slowdown baseline is the healthy balanced epoch: every update at
	// unit cost spread over n workers. In sequential mode the virtual-time
	// makespan measures the faulted schedule exactly (with dynamic work
	// claiming the straggler simply executes fewer updates and the stretch
	// stays near 1); with real concurrency the host's scheduling noise
	// would pollute the measurement, so the plan's analytic stretch is
	// used instead.
	c.lastSlowdown = 1
	if c.Sequential {
		if ideal := float64(updates) / float64(n); ideal > 0 && makespan > ideal {
			c.lastSlowdown = makespan / ideal
		}
	} else {
		c.lastSlowdown = c.Plan.AsyncSlowdown(n)
	}
}
