package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/numa"
	"repro/internal/obs"
)

// FullScaleStats carries exact full-dataset statistics for the cost model
// (see HogwildEngine.Full).
type FullScaleStats struct {
	Updates    int64   // model updates per epoch (= full N for Hogwild)
	AvgSupport float64 // mean gradient support per update
	DataBytes  int64   // bytes streamed per epoch (CSR storage)
}

// HogwildEngine is asynchronous incremental SGD on the CPU (the paper's
// Algorithm 3 run with the loop iterations in parallel): Threads workers
// share one model vector and update it concurrently without locks. With
// Threads == 1 it degenerates to sequential incremental SGD — the paper's
// async "cpu-seq" configuration.
//
// Execution is genuinely concurrent (goroutines racing on the shared
// vector, DimmWitted-style), so the statistical efficiency the driver
// measures is a real property of asynchrony. The modeled epoch time comes
// from the NUMA cost model, including the cache-coherence penalty of the
// scattered concurrent writes.
//
// The recorder receives phase timings (gradient = streaming read+compute,
// update = scattered model writes incl. coherence), the per-epoch update
// count, each worker's share of the updates, and — when Updater implements
// model.RetryCounter — the CAS-retry delta. Under an enabled chaos controller
// workers claim examples dynamically, read through staleness-bounded views,
// land updates under injector fates, and — in sequential mode — interleave
// on the seeded virtual-time scheduler, making the racy update order exactly
// replayable.
type HogwildEngine struct {
	poolHooks
	shuffle
	Model model.Model
	Data  *data.Dataset
	Step  float64
	// Threads is the modeled hardware-thread count (the paper uses 1 and
	// 56).
	Threads int
	// Updater selects the write discipline: model.RawUpdater (classic
	// Hogwild benign races) or model.AtomicUpdater (lock-free CAS adds).
	Updater model.Updater
	// Cost prices epochs; defaults to the paper machine.
	Cost *numa.Model
	// CostScale inflates the modeled update count and data volume to the
	// full dataset size when running on a scaled-down dataset (1 = no
	// scaling).
	CostScale float64
	// Full, when non-nil, overrides the cost-model inputs with exact
	// full-dataset statistics. A scaled sample under-represents the nnz
	// heavy tail, and multiplying its byte count by CostScale can land a
	// working set on the wrong side of a cache boundary — the registry
	// statistics avoid that.
	Full *FullScaleStats

	epochCost   float64
	gradCost    float64
	updCost     float64
	lastRetries int64

	task      hogwildTask     // pre-bound concurrent-path task
	bounds    []int           // nnz-balanced segment bounds over perm, reused
	shares    []float64       // per-segment update shares, reused
	scratches []model.Scratch // per-segment model scratch, created once
	caps      []captureUpdater
	claims    []int64
	ring      []inflightUpdate
	cursors   []int
	capture   captureUpdater
}

// NewHogwild builds the engine with the paper-machine cost model, raw
// updates, and a deterministic shuffle seed.
func NewHogwild(m model.Model, ds *data.Dataset, step float64, threads int) *HogwildEngine {
	return &HogwildEngine{
		shuffle: newShuffle(),
		Model:   m,
		Data:    ds,
		Step:    step,
		Threads: threads,
		Updater: model.RawUpdater{},
		Cost:    numa.PaperMachine(),
	}
}

// Name implements Engine.
func (e *HogwildEngine) Name() string {
	if e.Threads == 1 {
		return "async/cpu-seq"
	}
	return fmt.Sprintf("async/cpu-par(%d)", e.Threads)
}

// prepare computes the dataset-dependent cost inputs once.
func (e *HogwildEngine) prepare() {
	n := e.Data.N()
	if !e.fill(n) {
		return
	}
	var totalSupport float64
	for i := 0; i < n; i++ {
		totalSupport += float64(e.Model.GradSupport(e.Data, i))
	}
	scale := costScale(e.CostScale)
	updates := int64(float64(n) * scale)
	support := totalSupport / float64(n)
	dataBytes := int64(float64(e.Data.X.SparseBytes()) * scale)
	if e.Full != nil {
		updates = e.Full.Updates
		support = e.Full.AvgSupport
		dataBytes = e.Full.DataBytes
	}
	e.gradCost, e.updCost = e.Cost.HogwildEpochParts(
		e.Model.NumParams(), updates, support, dataBytes, e.Threads)
	e.epochCost = e.gradCost + e.updCost
}

// record emits one epoch's phase decomposition, worker shares, and (when the
// updater counts CAS retries) the contention delta. shares are the fraction
// of the epoch's updates each worker executed.
func (e *HogwildEngine) record(shares []float64) {
	rec, on := e.recorder()
	if !on {
		return
	}
	rec.Phase(obs.PhaseGradient, e.gradCost)
	rec.Phase(obs.PhaseUpdate, e.updCost)
	rec.Add(obs.CounterWorkerUpdates, int64(len(e.perm)))
	for _, s := range shares {
		rec.Observe(obs.MetricWorkerShare, s)
	}
	if rc, ok := e.Updater.(model.RetryCounter); ok {
		total := rc.Retries()
		rec.Add(obs.CounterCASRetries, total-e.lastRetries)
		e.lastRetries = total
	}
}

// RunEpoch implements Engine: one pass over a fresh shuffle of the data.
func (e *HogwildEngine) RunEpoch(w []float64) float64 {
	e.prepare()
	e.reshuffle()
	if e.Chaos.Enabled() {
		return e.runChaos(w)
	}
	// Host cores bound the real concurrency; the modeled time is still
	// priced at e.Threads on the paper machine.
	workers := min(e.Threads, runtime.GOMAXPROCS(0))
	if e.Threads > 1 && workers < e.Threads {
		// Not enough host cores to exhibit e.Threads-way asynchrony:
		// emulate it deterministically instead of under-representing
		// the staleness.
		e.runEmulated(w, e.Threads)
		e.record(e.shares)
		return e.epochCost
	}
	if workers <= 1 {
		scr := e.Model.NewScratch()
		upd := e.Updater
		for _, i := range e.perm {
			e.Model.SGDStep(w, e.Data, i, e.Step, upd, scr)
		}
		e.record([]float64{1})
		return e.epochCost
	}
	// Split the shuffled permutation into segments of approximately equal
	// nnz, not equal example count: on heavy-tailed data even counts leave
	// most workers idle behind the one that drew the wide rows, and an idle
	// worker understates the update interleaving the paper's asynchrony
	// analysis is about. Segments run on the persistent pool.
	n := len(e.perm)
	e.bounds = e.Data.X.PartitionRowsNNZ(e.perm, workers, e.bounds[:0])
	nseg := len(e.bounds) - 1
	e.shares = e.shares[:0]
	for k := 0; k < nseg; k++ {
		e.shares = append(e.shares, float64(e.bounds[k+1]-e.bounds[k])/float64(n))
	}
	for len(e.scratches) < nseg {
		e.scratches = append(e.scratches, e.Model.NewScratch())
	}
	e.task = hogwildTask{e: e, w: w}
	e.workerPool().Run(nseg, nseg, &e.task)
	e.record(e.shares)
	return e.epochCost
}

// runChaos executes one epoch under the fault controller. Unlike the healthy
// path's static nnz-balanced segments, workers claim examples dynamically
// off a shared counter over the shuffled permutation — so a straggler simply
// contributes fewer updates and the epoch stretches by only
// N/((N-S)+S/F), the asymmetry against the barriered synchronous engines
// that cmd/sgdchaos measures. Each gradient is computed against the worker's
// (possibly staleness-bounded) view and landed under the injector's fate. In
// sequential mode the whole epoch runs on the seeded virtual-time scheduler
// and replays bitwise; otherwise the workers race for real and only the
// fault decisions are deterministic.
func (e *HogwildEngine) runChaos(w []float64) float64 {
	n := len(e.perm)
	workers := e.chaosWorkers(e.Threads, n)
	for len(e.scratches) < workers {
		e.scratches = append(e.scratches, e.Model.NewScratch())
	}
	if len(e.caps) < workers {
		e.caps = make([]captureUpdater, workers)
	}
	if len(e.claims) < workers {
		e.claims = make([]int64, workers)
	}
	claims := e.claims[:workers]
	clear(claims)
	var next atomic.Int64
	e.Chaos.Run(e.Pool, workers, func(k int, cw *chaos.Worker) {
		scr := e.scratches[k]
		capt := &e.caps[k]
		for {
			t := int(next.Add(1)) - 1
			if t >= n {
				return
			}
			claims[k]++
			capt.reset()
			e.Model.SGDStep(cw.View(w), e.Data, e.perm[t], e.Step, capt, scr)
			applyFate(cw.Fate(), e.Updater, w, capt)
			cw.Step()
		}
	})
	e.shares = e.shares[:0]
	for k := 0; k < workers; k++ {
		e.shares = append(e.shares, float64(claims[k])/float64(n))
	}
	e.record(e.shares)
	slow := e.Chaos.Slowdown()
	extra := (slow - 1) * e.epochCost
	if extra > 0 {
		// The straggler's critical path shows up as synchronisation-free
		// idle time; attribute it to the barrier phase so the phase sum
		// stays consistent with the returned epoch seconds.
		obs.Or(e.Rec).Phase(obs.PhaseBarrier, extra)
	}
	e.closeStreams()
	return e.epochCost + extra
}

// hogwildTask runs the permutation segments [lo, hi) of one concurrent
// epoch; segment k owns scratch k, so concurrent segments never share
// mutable state (the model vector races by design).
type hogwildTask struct {
	e *HogwildEngine
	w []float64
}

func (t *hogwildTask) Run(lo, hi int) {
	e := t.e
	for k := lo; k < hi; k++ {
		scr := e.scratches[k]
		upd := e.Updater
		for _, i := range e.perm[e.bounds[k]:e.bounds[k+1]] {
			e.Model.SGDStep(t.w, e.Data, i, e.Step, upd, scr)
		}
	}
}

// runEmulated executes one epoch with P logical threads interleaved
// round-robin on the calling goroutine. Each logical thread computes its
// update against the model state at its turn but the write lands only P-1
// turns later (a FIFO of in-flight updates), reproducing the read-compute-
// write staleness of a real P-thread Hogwild run. Gradients are computed on
// stale models and concurrent writers interleave, exactly the statistical
// regime the paper measures on 56 threads. e.shares is left holding each
// logical thread's share of the epoch (its chunk of the permutation).
func (e *HogwildEngine) runEmulated(w []float64, p int) {
	n := len(e.perm)
	p = min(p, n)
	chunk := (n + p - 1) / p
	e.shares = e.shares[:0]
	for lo := 0; lo < n; lo += chunk {
		e.shares = append(e.shares, float64(min(lo+chunk, n)-lo)/float64(n))
	}
	if cap(e.cursors) < p {
		e.cursors = make([]int, p)
	}
	cursors := e.cursors[:p] // per logical thread position within its chunk
	clear(cursors)
	if len(e.scratches) == 0 {
		e.scratches = append(e.scratches, e.Model.NewScratch())
	}
	scr := e.scratches[0]
	// The FIFO of in-flight updates lives in a ring of at most p slots whose
	// index/delta buffers are reused across updates and epochs — the seed
	// allocated two fresh slices per model update here, which dominated the
	// emulated epoch's allocation profile.
	if cap(e.ring) < p {
		grown := make([]inflightUpdate, p)
		copy(grown, e.ring)
		e.ring = grown
	}
	ring := e.ring[:p]
	head, count := 0, 0
	capture := &e.capture
	apply := func(u *inflightUpdate) {
		for k, ix := range u.idx {
			e.Updater.Add(w, ix, u.delta[k])
		}
	}
	active := p
	for active > 0 {
		for t := 0; t < p; t++ {
			pos := t*chunk + cursors[t]
			if cursors[t] < 0 || pos >= n || pos >= (t+1)*chunk {
				if cursors[t] >= 0 {
					cursors[t] = -1
					active--
				}
				continue
			}
			cursors[t]++
			capture.reset()
			e.Model.SGDStep(w, e.Data, e.perm[pos], e.Step, capture, scr)
			slot := &ring[(head+count)%p]
			slot.idx = append(slot.idx[:0], capture.idx...)
			slot.delta = append(slot.delta[:0], capture.delta...)
			count++
			if count >= p {
				apply(&ring[head])
				head = (head + 1) % p
				count--
			}
		}
	}
	for ; count > 0; count-- {
		apply(&ring[head])
		head = (head + 1) % p
	}
}

// inflightUpdate is one captured-but-unapplied model update of the
// emulated asynchronous pipeline.
type inflightUpdate struct {
	idx   []int
	delta []float64
}

var _ Engine = (*HogwildEngine)(nil)
