package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
)

// SyncEngine is synchronous SGD (the paper's Algorithm 2): the gradient is
// computed with blocking linear-algebra primitives on a backend and the
// model is updated once per epoch from the full-dataset gradient —
// synchronous SGD "becomes batch gradient descent" (Section IV-A). The
// identical code runs on every backend; only the cost accounting differs.
//
// The recorder receives phase timings (gradient = batch-gradient kernels,
// update = Axpy, barrier = EpochOverhead) and the batch count, one per
// epoch. An enabled chaos controller stretches the epoch by the plan's
// synchronous slowdown: the per-epoch barrier waits out the straggler's full
// F-times share — unless Chaos.Deadline caps the wait, in which case the
// update proceeds with the gradient fraction received by the deadline (the
// straggler's missing contributions are counted as shortfall). This is the
// fragile half of the paper's contrast: the identical fault that barely moves the Hogwild
// engines multiplies every synchronous epoch.
type SyncEngine struct {
	hooks
	Backend linalg.Backend
	Model   model.BatchModel
	Data    *data.Dataset
	Step    float64
	// CostScale multiplies the modeled epoch time. The harness uses it
	// for configurations whose per-epoch kernel *count* grows with the
	// dataset (the chunked MLP pipeline): each kernel keeps its true
	// size and the epoch total is scaled to the full dataset. For LR/SVM
	// (fixed kernel count per epoch) scaling is applied inside the
	// backend via WorkScale instead, and CostScale stays 1.
	CostScale float64
	// EpochOverhead is added once per epoch after scaling: the empirical
	// per-epoch primitive-management overhead of the paper's ViennaCL
	// deployment, calibrated from Table II (the near-constant ~1.9s
	// sequential and ~6ms parallel components across all five datasets;
	// ~4ms on GPU). It models library temporaries/dispatch, not compute.
	EpochOverhead float64

	grad []float64
}

// NewSync builds a synchronous engine with full-batch updates.
func NewSync(b linalg.Backend, m model.BatchModel, ds *data.Dataset, step float64) *SyncEngine {
	return &SyncEngine{Backend: b, Model: m, Data: ds, Step: step}
}

// Name implements Engine.
func (e *SyncEngine) Name() string { return "sync/" + e.Backend.Name() }

// chaosStretch resolves the epoch stretch and update scale the fault plan
// imposes on the barriered path. Without a deadline the barrier waits out
// the straggler (stretch = SyncSlowdown, full gradient); with one, the
// epoch is capped at Deadline times the healthy epoch and the update is
// scaled by the fraction of gradient contributions received by then —
// shortfall is the examples the straggler never delivered.
func (e *SyncEngine) chaosStretch() (stretch, stepScale float64, shortfall int64) {
	stretch, stepScale = 1, 1
	if !e.Chaos.Enabled() {
		return
	}
	stretch = e.Chaos.Plan.SyncSlowdown()
	d := e.Chaos.Deadline
	if d < 1 || d >= stretch {
		return
	}
	workers := e.Chaos.Workers
	if workers <= 0 {
		workers = 56 // the paper machine's thread count
	}
	s := min(e.Chaos.Plan.Stragglers, workers)
	// By the deadline each straggler has finished d/stretch of its static
	// 1/workers share; the healthy workers have finished theirs.
	frac := (float64(workers-s) + float64(s)*d/stretch) / float64(workers)
	stepScale = frac
	stretch = d
	shortfall = int64((1 - frac) * float64(e.Data.N()))
	return
}

// RunEpoch implements Engine.
func (e *SyncEngine) RunEpoch(w []float64) float64 {
	if len(w) != e.Model.NumParams() {
		panic(fmt.Sprintf("core: model has %d params, got %d", e.Model.NumParams(), len(w)))
	}
	if e.grad == nil {
		e.grad = make([]float64, e.Model.NumParams())
	}
	rec, _ := e.recorder()
	stretch, stepScale, shortfall := e.chaosStretch()
	meter := e.Backend.Meter()
	start := meter.Seconds()
	e.Model.BatchGrad(e.Backend, w, e.Data, nil, e.grad)
	u0 := meter.Seconds()
	e.Backend.Axpy(-e.Step*stepScale, e.grad, w)
	updSec := meter.Seconds() - u0
	sec := meter.Seconds() - start
	scale := costScale(e.CostScale)
	// Phase attribution: batch-gradient kernels are the gradient phase,
	// the Axpy model write is the update phase, and the per-epoch
	// primitive-management overhead — plus whatever the barrier spends
	// waiting for a chaos-plan straggler — is the synchronisation/dispatch
	// barrier. The three sum exactly to the returned epoch seconds.
	barrier := e.EpochOverhead + (stretch-1)*sec*scale
	rec.Phase(obs.PhaseGradient, (sec-updSec)*scale)
	rec.Phase(obs.PhaseUpdate, updSec*scale)
	rec.Phase(obs.PhaseBarrier, barrier)
	rec.Add(obs.CounterBatches, 1)
	rec.Add(obs.CounterWorkerUpdates, 1)
	if shortfall > 0 {
		e.Chaos.Injector().CountShortfall(shortfall)
	}
	e.closeStreams()
	return sec*scale*stretch + e.EpochOverhead
}

var _ Engine = (*SyncEngine)(nil)
