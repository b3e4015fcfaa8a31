package core

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/race"
)

// relClose reports |a-b| <= tol*max(|a|,|b|).
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= tol*scale
}

// runInstrumented drives nEpochs of e under a fresh aggregator, closing each
// epoch the way the convergence driver does, and returns the run's stats.
func runInstrumented(t *testing.T, e Engine, w []float64, nEpochs int) obs.RunStats {
	t.Helper()
	agg := obs.NewAggregator()
	rec := agg.Run(e.Name(), "test")
	Instrument(e, rec)
	for i := 0; i < nEpochs; i++ {
		rec.EndEpoch(e.RunEpoch(w))
	}
	runs := agg.Runs()
	if len(runs) != 1 {
		t.Fatalf("expected 1 run, got %d", len(runs))
	}
	return runs[0]
}

// sharedModelThreads is the thread count of a Hogwild test on overlapping
// supports. Concurrent Hogwild there mixes plain gradient reads with
// concurrent component writes — racy by design — so under -race the
// single-threaded engine runs instead; the detector's coverage of the
// concurrent path is TestSharedPoolHogwildAndBackendConcurrently on disjoint
// supports.
func sharedModelThreads() int {
	if race.Enabled {
		return 1
	}
	return 2
}

func TestHogwildRecordsPhasesAndWorkerCounters(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.5, sharedModelThreads())
	w := m.InitParams(1)
	const epochs = 3
	r := runInstrumented(t, e, w, epochs)

	if r.Epochs != epochs {
		t.Fatalf("epochs recorded = %d, want %d", r.Epochs, epochs)
	}
	// Acceptance: Hogwild traces include nonzero worker-update counters.
	wantUpdates := int64(epochs * ds.N())
	if got := r.Counter(obs.CounterWorkerUpdates); got != wantUpdates {
		t.Fatalf("worker_updates = %d, want %d", got, wantUpdates)
	}
	// Acceptance: phase times sum to the modeled epoch seconds (the 5%
	// budget in the issue; the decomposition is exact up to rounding).
	if !relClose(r.EnginePhaseSum(), r.Seconds, 1e-9) {
		t.Fatalf("phase sum %v != modeled seconds %v", r.EnginePhaseSum(), r.Seconds)
	}
	if r.Phase(obs.PhaseGradient) <= 0 || r.Phase(obs.PhaseUpdate) <= 0 {
		t.Fatalf("gradient/update phases should be positive: %v / %v",
			r.Phase(obs.PhaseGradient), r.Phase(obs.PhaseUpdate))
	}
	// Worker shares: one observation per worker per epoch, summing to ~1
	// per epoch.
	d := r.Observation(obs.MetricWorkerShare)
	if d.Count == 0 {
		t.Fatal("no worker_share observations")
	}
	if !relClose(d.Sum, float64(epochs), 1e-9) {
		t.Fatalf("worker shares sum to %v per run, want %v", d.Sum, float64(epochs))
	}
}

// TestHogwildSequentialEpochAllocatesNothing pins the plain sequential epoch
// (threads 1, LR, recorder detached) at zero allocations once warm. It must be
// the sequential engine: AllocsPerRun pins GOMAXPROCS to 1, which would push a
// multi-thread engine onto the emulated path and measure the wrong thing; the
// concurrent dispatch around the same SGDStep loop is pinned alloc-free by
// internal/pool's tests.
func TestHogwildSequentialEpochAllocatesNothing(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 200)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.3, 1)
	w := m.InitParams(1)
	e.RunEpoch(w) // warm: permutation and cost inputs are built on first use
	if allocs := testing.AllocsPerRun(3, func() { e.RunEpoch(w) }); allocs != 0 {
		t.Errorf("warm sequential Hogwild epoch allocates %.0f times, want 0", allocs)
	}
}

func TestSyncRecordsBarrierAndBatches(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	e := NewSync(linalg.NewCPU(56), m, ds, 1)
	e.Batch = 100
	e.EpochOverhead = 1.9
	w := m.InitParams(1)
	const epochs = 2
	r := runInstrumented(t, e, w, epochs)

	// Acceptance: sync traces include barrier timings.
	if got, want := r.Phase(obs.PhaseBarrier), float64(epochs)*e.EpochOverhead; !relClose(got, want, 1e-9) {
		t.Fatalf("barrier phase = %v, want %v", got, want)
	}
	if !relClose(r.EnginePhaseSum(), r.Seconds, 1e-9) {
		t.Fatalf("phase sum %v != modeled seconds %v", r.EnginePhaseSum(), r.Seconds)
	}
	wantBatches := int64(epochs * ((ds.N() + 99) / 100))
	if got := r.Counter(obs.CounterBatches); got != wantBatches {
		t.Fatalf("batches = %d, want %d", got, wantBatches)
	}
}

func TestGPUHogwildRecordsConflictAndCoalescingCounters(t *testing.T) {
	ds, _ := smallDataset(t, "covtype", 400)
	m := model.NewLR(ds.D())
	e := NewGPUHogwild(m, ds, 0.1)
	e.MaxWarps = 8
	w := m.InitParams(1)
	r := runInstrumented(t, e, w, 2)

	if r.Counter(obs.CounterGPUUpdates) <= 0 {
		t.Fatal("no gpu_updates recorded")
	}
	if r.Counter(obs.CounterGPUTransactions) <= 0 {
		t.Fatal("no gpu_transactions recorded")
	}
	if r.Counter(obs.CounterGPUApplied) <= 0 {
		t.Fatal("no gpu_applied recorded")
	}
	// covtype is dense: lanes of a warp write the same components, so the
	// unsynchronised kernel must lose updates intra-warp.
	if r.Counter(obs.CounterGPULostIntra) <= 0 {
		t.Fatal("dense data should exhibit intra-warp lost updates")
	}
	if !relClose(r.EnginePhaseSum(), r.Seconds, 1e-9) {
		t.Fatalf("phase sum %v != modeled seconds %v", r.EnginePhaseSum(), r.Seconds)
	}
	if r.Phase(obs.PhaseBarrier) <= 0 {
		t.Fatal("kernel-launch barrier phase should be positive")
	}
	d := r.Observation(obs.MetricDivergentWarpFrac)
	if d.Count == 0 {
		t.Fatal("no divergent_warp_frac observations")
	}
	if d.Min < 0 || d.Max > 1 {
		t.Fatalf("divergence fraction outside [0,1]: min %v max %v", d.Min, d.Max)
	}
}

func TestHogbatchRecordsBatchLatencies(t *testing.T) {
	ds, _ := smallDataset(t, "covtype", 600)
	m := model.NewLR(ds.D())
	e := NewHogbatch(m, ds, 0.1, HogbatchSeq)
	e.Batch = 128
	w := m.InitParams(1)
	const epochs = 2
	r := runInstrumented(t, e, w, epochs)

	nb := (ds.N() + 127) / 128
	if got := r.Counter(obs.CounterBatches); got != int64(epochs*nb) {
		t.Fatalf("batches = %d, want %d", got, epochs*nb)
	}
	d := r.Observation(obs.MetricBatchSeconds)
	if d.Count != int64(epochs*nb) {
		t.Fatalf("batch_seconds observations = %d, want %d", d.Count, epochs*nb)
	}
	if d.Min <= 0 {
		t.Fatalf("batch latency must be positive, min %v", d.Min)
	}
	if !relClose(r.EnginePhaseSum(), r.Seconds, 1e-9) {
		t.Fatalf("phase sum %v != modeled seconds %v", r.EnginePhaseSum(), r.Seconds)
	}
}

func TestDriverRecordsLossEvalOutsidePhaseSum(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.5, 1)
	w := m.InitParams(1)
	agg := obs.NewAggregator()
	res := RunToConvergence(e, m, ds, w, DriverOpts{
		OptLoss:   0,
		MaxEpochs: 4,
		Rec:       agg.Run(e.Name(), ds.Name),
	})
	runs := agg.Runs()
	if len(runs) != 1 {
		t.Fatalf("expected 1 run, got %d", len(runs))
	}
	r := runs[0]
	// Epoch 0 is the initial evaluation (no engine time), then one trace
	// epoch per engine epoch.
	if r.Epochs != res.Epochs+1 {
		t.Fatalf("trace epochs = %d, want %d", r.Epochs, res.Epochs+1)
	}
	if r.Phase(obs.PhaseLossEval) <= 0 {
		t.Fatal("driver did not record loss_eval time")
	}
	// Loss evaluation is excluded from iteration timing (the paper's
	// methodology): the engine phases alone must reassemble the modeled
	// seconds.
	if !relClose(r.EnginePhaseSum(), r.Seconds, 1e-9) {
		t.Fatalf("phase sum %v != modeled seconds %v", r.EnginePhaseSum(), r.Seconds)
	}
	wantSec := res.SecPerEpoch * float64(res.Epochs)
	if !relClose(r.Seconds, wantSec, 1e-9) {
		t.Fatalf("trace seconds %v != driver seconds %v", r.Seconds, wantSec)
	}
}
