package core

import (
	"slices"

	"repro/internal/data"
	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/obs"
)

// GPUHogwildEngine is the asynchronous SGD kernel on the simulated GPU:
// examples are processed by 32-lane warps in lockstep, gradients are
// computed against warp-round model snapshots, and unsynchronised lane
// writes collide (see internal/gpusim for the exact semantics). This is the
// configuration the GPU frameworks do not ship and the paper had to build
// (Section III-B).
//
// The recorder receives phase timings (barrier = kernel-launch overhead,
// update = the write share of the roofline time, gradient = the rest), the
// simulator's conflict/coalescing counters, and the divergent-warp fraction.
// An enabled chaos controller wires the plan's drop fraction into the
// simulator's FaultDrop hook and stretches the epoch by the async straggler
// slowdown over the resident warps — vanishing, because thousands of warps
// absorb one slow one. Staleness injection is a no-op here: warp-round
// snapshot staleness is already the kernel's native read semantics.
type GPUHogwildEngine struct {
	hooks
	shuffle
	Model model.Model
	Data  *data.Dataset
	Step  float64
	Dev   *gpusim.Device
	// Combine enables the warp-shuffle conflict-reduction optimisation.
	Combine bool
	// MaxWarps caps resident warps; 0 uses OccupancyForN to keep the
	// concurrency-to-dataset ratio of the paper's full-scale runs when
	// the dataset is scaled down.
	MaxWarps int
	// CostScale inflates the modeled kernel work (not the launch
	// overhead) to the full dataset size (1 = no scaling).
	CostScale float64
	// SharedMemory enables the extended-version optimisation: per-block
	// model replicas in shared memory with end-of-pass averaging, used
	// when the model fits 48 KB (covtype, w8a and all the paper's MLP
	// models qualify). Falls back to the flat kernel otherwise.
	SharedMemory bool
	// WarpPerExample selects the cooperative kernel layout (see
	// gpusim.AsyncConfig.WarpPerExample): no intra-warp conflicts or
	// divergence, 32x fewer concurrent examples.
	WarpPerExample bool

	stats gpusim.AsyncStats
}

// OccupancyForN returns the resident-warp bound used for a dataset of n
// examples: the device limit, scaled down proportionally for reduced
// datasets so that the staleness ratio (concurrent updates / N) matches the
// paper's full-scale experiments (~26k threads against ~10^5..10^6
// examples).
func OccupancyForN(dev *gpusim.Device, n int) int {
	limit := dev.Spec.MaxResidentWarps()
	// Paper-scale ratio: ~1 resident thread per 22 examples.
	return min(max(n/(22*dev.Spec.WarpSize), 1), limit)
}

// NewGPUHogwild builds the engine on the K80 with scaled occupancy.
func NewGPUHogwild(m model.Model, ds *data.Dataset, step float64) *GPUHogwildEngine {
	dev := gpusim.K80()
	return &GPUHogwildEngine{
		shuffle: newShuffle(),
		Model:   m, Data: ds, Step: step, Dev: dev,
		MaxWarps: OccupancyForN(dev, ds.N()),
	}
}

// Name implements Engine.
func (e *GPUHogwildEngine) Name() string { return "async/gpu" }

// LastStats returns the conflict statistics of the most recent epoch.
func (e *GPUHogwildEngine) LastStats() gpusim.AsyncStats { return e.stats }

// record surfaces one epoch's AsyncStats through the recorder. The phase
// split attributes the kernel-launch overhead to the barrier phase and
// divides the roofline kernel time between update (the model-write share of
// the global traffic) and gradient (everything else); the three sum exactly
// to Cost.Seconds.
func (e *GPUHogwildEngine) record(st gpusim.AsyncStats) {
	rec, on := e.recorder()
	if !on {
		return
	}
	barrier := float64(st.Cost.Launches) * e.Dev.Spec.KernelLaunchNS * 1e-9
	kernel := st.Cost.Seconds - barrier
	if kernel < 0 {
		kernel = 0
	}
	var update float64
	if st.Cost.Bytes > 0 {
		update = kernel * st.Cost.WriteBytes / st.Cost.Bytes
	}
	rec.Phase(obs.PhaseGradient, kernel-update)
	rec.Phase(obs.PhaseUpdate, update)
	rec.Phase(obs.PhaseBarrier, barrier)
	rec.Add(obs.CounterGPUUpdates, st.Updates)
	rec.Add(obs.CounterGPULostIntra, st.LostIntra)
	rec.Add(obs.CounterGPULostInter, st.LostInter)
	rec.Add(obs.CounterGPUApplied, st.Applied)
	rec.Add(obs.CounterGPURounds, st.Rounds)
	rec.Add(obs.CounterGPUTransactions, st.Cost.Transactions)
	// Each emitted component update implies one model-read and one
	// model-write request; perfectly coalesced they would need
	// requests*8/TransactionBytes transactions, so the ratio of issued
	// transactions to this baseline is the coalescing factor.
	rec.Add(obs.CounterGPURequests, 2*st.Updates)
	if st.Cost.LockstepOps > 0 {
		rec.Observe(obs.MetricDivergentWarpFrac, 1-st.Cost.Flops/st.Cost.LockstepOps)
	}
}

// captureUpdater records SGDStep's component updates instead of applying
// them, so the simulator controls which writes land.
type captureUpdater struct {
	idx   []int
	delta []float64
}

// AddScaled implements model.Updater: it records off+cols[k] and
// a*vals[k] for every k.
func (c *captureUpdater) AddScaled(_ []float64, off int, cols []int32, vals []float64, a float64) {
	idx, delta := c.grow(len(cols))
	for k, col := range cols {
		idx[k] = off + int(col)
		delta[k] = a * vals[k]
	}
}

// AddDense implements model.Updater: it records off+k and a*g[k] for
// every k.
func (c *captureUpdater) AddDense(_ []float64, off int, g []float64, a float64) {
	idx, delta := c.grow(len(g))
	for k, v := range g {
		idx[k] = off + k
		delta[k] = a * v
	}
}

// grow extends both records by n entries and returns the new tails.
func (c *captureUpdater) grow(n int) ([]int, []float64) {
	m := len(c.idx)
	c.idx = slices.Grow(c.idx, n)[:m+n]
	c.delta = slices.Grow(c.delta, n)[:m+n]
	return c.idx[m:], c.delta[m:]
}

// step captures one SGD step of example i against w in place of whatever
// the updater held.
func (c *captureUpdater) step(m model.Model, ds *data.Dataset, w []float64, i int, lr float64, scr model.Scratch) {
	c.idx, c.delta = c.idx[:0], c.delta[:0]
	m.SGDStep(w, ds, i, lr, c, scr)
}

// gpuAsyncConfig is the simulator configuration common to the GPU-side
// engines: occupancy, the model's per-touched-weight flop count, and the
// per-example read support.
func gpuAsyncConfig(m model.Model, ds *data.Dataset, maxWarps int) gpusim.AsyncConfig {
	fpe := 4
	if m.Name() == "mlp" {
		fpe = 6 // forward + backward multiply-adds per touched weight
	}
	return gpusim.AsyncConfig{
		MaxWarps:        maxWarps,
		FlopsPerElement: fpe,
		ReadSupport:     func(item int) int { return m.GradSupport(ds, item) },
	}
}

// RunEpoch implements Engine.
func (e *GPUHogwildEngine) RunEpoch(w []float64) float64 {
	e.fill(e.Data.N())
	e.reshuffle()
	scr := e.Model.NewScratch()
	capt := &captureUpdater{}
	cfg := gpuAsyncConfig(e.Model, e.Data, e.MaxWarps)
	cfg.Combine = e.Combine
	cfg.WarpPerExample = e.WarpPerExample
	cw := e.standaloneWorker()
	if cw != nil {
		// Deterministic per-item drop decisions; the simulator still
		// charges the dropped lane's compute (see AsyncConfig.FaultDrop).
		// Duplication has no SIMT analogue — a duped fate applies once.
		cfg.FaultDrop = e.faultDrop(cw.Stream)
	}
	// compute is the simulator's per-lane callback: one SGD step against
	// the lane's view of the model, captured and re-emitted so the
	// simulator decides which writes land.
	compute := func(item int, wv []float64, emit func(int, float64)) {
		capt.step(e.Model, e.Data, wv, item, e.Step, scr)
		for k, ix := range capt.idx {
			emit(ix, capt.delta[k])
		}
	}
	if e.SharedMemory && int64(e.Model.NumParams())*8 <= e.Dev.Spec.SharedMemPerMP {
		e.stats = e.Dev.RunAsyncEpochShared(e.Model.NumParams(), e.perm, cfg,
			func(idx int) float64 { return w[idx] }, compute,
			func(idx int, v float64) { w[idx] = v })
	} else {
		e.stats = e.Dev.RunAsyncEpoch(e.perm, cfg,
			func(item int, emit func(int, float64)) { compute(item, w, emit) },
			func(idx int, delta float64) { w[idx] += delta })
	}
	if scale := costScale(e.CostScale); scale != 1 {
		e.stats.Cost = e.Dev.Rescale(e.stats.Cost, scale)
	}
	if cw != nil {
		// One straggling warp among the resident thousands barely moves
		// the kernel. The slowdown is modeled against the device's full
		// occupancy, not the dataset-scaled MaxWarps: modeled time is
		// paper-scale, where the straggler really is one warp of ~26k
		// threads. Stretch before recording so the phase split stays
		// consistent with the returned epoch seconds.
		mw := e.Dev.Spec.MaxResidentWarps()
		e.Chaos.Workers = mw
		e.stats.Cost.Seconds *= e.Chaos.Plan.AsyncSlowdown(mw)
	}
	e.record(e.stats)
	e.closeStreams()
	return e.stats.Cost.Seconds
}

var _ Engine = (*GPUHogwildEngine)(nil)
