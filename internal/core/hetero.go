package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/data"
	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/obs"
)

// Heterogeneous co-training cost-model defaults, in the same abstract work
// units the Local-SGD family prices with: one CPU gradient step costs one
// unit (DefaultLocalSecPerUnit modeled seconds); the GPU side is priced by
// the simulator's roofline in real seconds.
const (
	// DefaultHeteroBatch is the dispatch granularity of the split: the
	// shuffled epoch is cut into batches of this many examples and each
	// batch is routed whole to one backend. One warp-width-sized batch is
	// small enough for the adaptive ratio to act within an epoch and large
	// enough that routing overhead is irrelevant.
	DefaultHeteroBatch = 32
	// DefaultHeteroMergeUnits prices the synchronous end-of-epoch merge —
	// folding K CPU replica vectors plus the GPU weight stream into a
	// weighted average and broadcasting it back. Priced like the Local-SGD
	// barrier reduction, which performs the same K+1-way fold.
	DefaultHeteroMergeUnits = DefaultLocalReduceUnits
	// DefaultHeteroBlendUnits prices one asynchronous apply-on-arrival
	// blend: a two-vector convex combination, much cheaper than the full
	// K+1-way fold, charged per completed batch in the async engine.
	DefaultHeteroBlendUnits = 8.0
	// heteroMergeBeta is the weight of the arriving stream in that blend.
	heteroMergeBeta = 0.5
	// DefaultHeteroMinShare bounds the adaptive ratio away from 0 and 1 so
	// a temporarily slow backend keeps receiving probe work and can win its
	// share back when it recovers.
	DefaultHeteroMinShare = 0.05
	// DefaultHeteroAlpha is the EWMA weight on the newest per-example time
	// observation. 0.5 converges within 2–3 epochs after a throughput step
	// (a straggler arriving or clearing) without oscillating on noise.
	DefaultHeteroAlpha = 0.5
	// DefaultHeteroStartShare is the deterministic initial GPU share; every
	// run starts 50/50 so golden curves are a pure function of the seed.
	DefaultHeteroStartShare = 0.5
)

// HeteroEngine is synchronous heterogeneous co-training (Ma & Rusu 2020): one
// epoch's shuffled batch stream is split between the real CPU worker pool
// (internal/pool, K private replicas stepping in parallel) and the simulated
// GPU (internal/gpusim, one kernel over the GPU's share), both running
// concurrently, and the two weight streams are merged once at the end of the
// epoch by a weighted average — each contribution weighted by the number of
// examples it absorbed, folded in fixed replica order (CPU replicas
// ascending, GPU last) so the parallel reduction is bitwise identical to a
// serial weighted mean.
//
// The split ratio adapts: after each epoch the engine folds the observed
// per-example wall time of each backend into an EWMA and sets the next
// epoch's GPU share to ewmaCPU/(ewmaCPU+ewmaGPU) — time-proportional
// allocation, the discrete analogue of the follow-up paper's throughput-
// proportional batch sizing. The start share is a deterministic constant, so
// for a fixed shuffle seed the whole trajectory (splits included) replays
// exactly; the regress harness gates "hetero-sync" on a 1e-9 golden curve.
//
// Chaos maps the GPU to injector worker 0 and CPU replica r to worker r+1,
// so the stock straggler/storm plans (which slow the first worker) model a
// straggling GPU: its kernel time stretches by the straggler factor, the
// EWMA sees it, and the split shifts toward the CPU within a bounded number
// of epochs (~2–3 at DefaultHeteroAlpha; asserted by the chaos tests). Fault
// granularity mirrors each backend's native semantics: GPU drop fates act
// per example inside the kernel (as in GPUHogwildEngine), CPU drop/dup fates
// act per replica-epoch on the merge weight (as in LocalSGDEngine's rounds).
// Staleness plans are a no-op here — within an epoch the backends never read
// each other's writes.
//
// The recorder receives the phase split (gradient = the overlapped backend
// compute, barrier = the slack the faster backend waits, update = the
// merge), the hetero batch counters, and the realised GPU share.
type HeteroEngine struct {
	poolHooks
	shuffle
	Model model.Model
	Data  *data.Dataset
	Step  float64
	// CPUWorkers is K: the number of private CPU replicas stepping in
	// parallel (clamped to the dataset size on first use).
	CPUWorkers int
	// Dev is the simulated GPU; MaxWarps caps its resident warps (0 uses
	// OccupancyForN, as the pure-GPU engines do).
	Dev      *gpusim.Device
	MaxWarps int
	// FixedGPUShare pins the split (0 = all CPU, 1 = all GPU) and disables
	// adaptation — the static baseline the adaptive policy is gated
	// against, and the degenerate endpoints of the merge property test.
	// Negative (the constructor's default) means adaptive.
	FixedGPUShare float64

	cpuItems []int
	gpuItems []int
	cb       []int       // CPU replica bounds over cpuItems (contiguous, equal±1)
	reps     [][]float64 // private CPU replica vectors, 64B-aligned
	scrs     []model.Scratch
	wGPU     []float64 // the GPU's private weight stream
	gpuScr   model.Scratch
	capt     captureUpdater
	merge    [][]float64 // reps..., wGPU — fixed fold order
	wgt      []float64
	stats    gpusim.AsyncStats

	share    float64 // next epoch's target GPU share (adaptive state)
	ewmaCPU  float64 // smoothed per-example seconds, CPU backend
	ewmaGPU  float64 // smoothed per-example seconds, GPU backend
	lastCPUB int     // last epoch's realised batch split, for tests/bench
	lastGPUB int

	stepT  heteroStepTask
	reduce reduceTask
	bcast  broadcastTask
}

// NewHetero builds the adaptive engine on the K80 with scaled occupancy, the
// default cost model, and a deterministic shuffle seed.
func NewHetero(m model.Model, ds *data.Dataset, step float64, cpuWorkers int) *HeteroEngine {
	dev := gpusim.K80()
	return &HeteroEngine{
		shuffle:       newShuffle(),
		Model:         m,
		Data:          ds,
		Step:          step,
		CPUWorkers:    cpuWorkers,
		Dev:           dev,
		MaxWarps:      OccupancyForN(dev, ds.N()),
		FixedGPUShare: -1,
		share:         DefaultHeteroStartShare,
	}
}

// Name implements Engine.
func (e *HeteroEngine) Name() string {
	return fmt.Sprintf("hetero-sync/cpu+gpu(%d)", e.CPUWorkers)
}

// SetShuffleSeed implements Seeded. It also resets the adaptive estimator so
// every seeded run starts from the same deterministic 50/50 split.
func (e *HeteroEngine) SetShuffleSeed(seed int64) {
	e.shuffle.SetShuffleSeed(seed)
	e.share = DefaultHeteroStartShare
	e.ewmaCPU, e.ewmaGPU = 0, 0
}

// GPUShare returns the adaptive estimator's current target GPU share.
func (e *HeteroEngine) GPUShare() float64 { return e.share }

// LastSplit returns the realised batch split of the most recent epoch.
func (e *HeteroEngine) LastSplit() (cpuBatches, gpuBatches int) {
	return e.lastCPUB, e.lastGPUB
}

// LastStats returns the GPU simulator statistics of the most recent epoch.
func (e *HeteroEngine) LastStats() gpusim.AsyncStats { return e.stats }

func (e *HeteroEngine) prepare() {
	n := e.Data.N()
	if !e.fill(n) {
		return
	}
	e.CPUWorkers = max(1, min(e.CPUWorkers, n))
	if e.MaxWarps <= 0 {
		e.MaxWarps = OccupancyForN(e.Dev, n)
	}
	k := e.CPUWorkers
	e.cpuItems = make([]int, 0, n)
	e.gpuItems = make([]int, 0, n)
	e.cb = make([]int, k+1)
	e.reps, e.scrs = newReplicas(e.Model, k)
	e.wGPU = model.AlignedVec(e.Model.NumParams())
	e.gpuScr = e.Model.NewScratch()
	e.merge = make([][]float64, k+1)
	copy(e.merge, e.reps)
	e.merge[k] = e.wGPU
	e.wgt = make([]float64, k+1)
}

// targetShare is the GPU share the next split executes at.
func (e *HeteroEngine) targetShare() float64 {
	if e.FixedGPUShare >= 0 {
		return e.FixedGPUShare
	}
	return e.share
}

// gpuBatchCount rounds the share to a batch count. In adaptive mode both
// backends keep at least one batch (the estimator needs fresh observations
// from each to ever reverse a shift); a pinned share may take the degenerate
// all-CPU / all-GPU endpoints.
func (e *HeteroEngine) gpuBatchCount(share float64, nb int) int {
	g := max(0, min(int(math.Round(share*float64(nb))), nb))
	if e.FixedGPUShare < 0 && nb >= 2 {
		g = max(1, min(g, nb-1))
	}
	return g
}

// split routes the epoch's shuffled batches: of nb batches, gb go to the GPU,
// spread evenly through the stream (batch b is a GPU batch iff the scaled
// index (b+1)*gb/nb advances), so both backends sample the whole shuffle
// rather than a prefix. CPU items are then sharded contiguously over the K
// replicas, lengths differing by at most one.
func (e *HeteroEngine) split(n, nb, gb int) {
	e.cpuItems = e.cpuItems[:0]
	e.gpuItems = e.gpuItems[:0]
	for b := 0; b < nb; b++ {
		lo := b * DefaultHeteroBatch
		hi := min(lo+DefaultHeteroBatch, n)
		if (b+1)*gb/nb > b*gb/nb {
			e.gpuItems = append(e.gpuItems, e.perm[lo:hi]...)
		} else {
			e.cpuItems = append(e.cpuItems, e.perm[lo:hi]...)
		}
	}
	k := e.CPUWorkers
	cn := len(e.cpuItems)
	for r := 0; r <= k; r++ {
		e.cb[r] = r * cn / k
	}
}

// RunEpoch implements Engine: split a fresh shuffle by the current target
// ratio, run both backends concurrently, merge the weight streams, and fold
// the observed backend times into the adaptive estimator.
func (e *HeteroEngine) RunEpoch(w []float64) float64 {
	e.prepare()
	n := len(e.perm)
	e.reshuffle()
	k := e.CPUWorkers
	p := e.workerPool()
	streams := e.openStreams(k + 1) // 0 = GPU, 1..K = CPU replicas; nil = healthy
	chaosOn := streams != nil

	nb := (n + DefaultHeteroBatch - 1) / DefaultHeteroBatch
	gb := e.gpuBatchCount(e.targetShare(), nb)
	e.split(n, nb, gb)
	e.lastGPUB = gb
	e.lastCPUB = nb - gb
	gpuN := len(e.gpuItems)
	cpuN := len(e.cpuItems)

	// Both backends start the epoch from the published model.
	e.bcast = broadcastTask{src: w, reps: e.reps}
	p.Run(k, k, &e.bcast)
	copy(e.wGPU, w)

	// GPU pass: one kernel over the GPU's share of the shuffle, into the
	// private GPU weight stream. It runs on its own goroutine, overlapped
	// with the CPU pass below; the two touch disjoint vectors, so the
	// overlap cannot perturb either result.
	var gpuSec float64
	var wg sync.WaitGroup
	if gpuN > 0 {
		cfg := gpuAsyncConfig(e.Model, e.Data, e.MaxWarps)
		if chaosOn {
			cfg.FaultDrop = e.faultDrop(streams[0])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.stats = e.Dev.RunAsyncEpoch(e.gpuItems, cfg,
				emitStep(e.Model, e.Data, e.wGPU, e.Step, &e.capt, e.gpuScr), addTo(e.wGPU))
			gpuSec = e.stats.Cost.Seconds
		}()
	}

	// CPU pass: K replicas step their contiguous shard of the CPU items on
	// private vectors, dispatched on the pool (the caller helps).
	if cpuN > 0 {
		e.stepT = heteroStepTask{e: e}
		p.Run(k, k, &e.stepT)
	}
	wg.Wait()

	// Price the two sides. The GPU straggler factor stretches the whole
	// kernel time, launch included, exactly as GPUHogwildEngine models it.
	if chaosOn && gpuN > 0 {
		gpuSec *= streams[0].Cost()
	}
	cpuUnits := 0.0
	for r := 0; r < k; r++ {
		items := float64(e.cb[r+1] - e.cb[r])
		cost := 1.0
		if chaosOn && items > 0 {
			cost = streams[r+1].Cost()
		}
		if u := items * cost; u > cpuUnits {
			cpuUnits = u
		}
	}
	cpuSec := cpuUnits * DefaultLocalSecPerUnit

	// Merge weights: each contribution counts its examples; CPU fates act
	// here (a dropped replica-epoch loses its weight, a duplicated one
	// doubles it). GPU drops already acted per example inside the kernel.
	for r := 0; r < k; r++ {
		items := float64(e.cb[r+1] - e.cb[r])
		e.wgt[r] = items
		if chaosOn && items > 0 {
			e.wgt[r] = items * float64(fateTimes(streams[r+1].Fate()))
		}
	}
	e.wgt[k] = float64(gpuN)
	wsum := 0.0
	for _, v := range e.wgt {
		wsum += v
	}
	mergeSec := 0.0
	merged := false
	if wsum > 0 {
		e.reduce = reduceTask{dst: w, reps: e.merge, wgt: e.wgt, wsum: wsum}
		p.RunGrain(p.Size(), len(w), reduceGrain, &e.reduce)
		mergeSec = DefaultHeteroMergeUnits * DefaultLocalSecPerUnit
		merged = true
	}

	// Fold the observed per-example times into the estimator and set the
	// next epoch's share by time-proportional allocation.
	if e.FixedGPUShare < 0 {
		if cpuN > 0 {
			e.ewmaCPU = ewma(e.ewmaCPU, cpuSec/float64(cpuN), DefaultHeteroAlpha)
		}
		if gpuN > 0 {
			e.ewmaGPU = ewma(e.ewmaGPU, gpuSec/float64(gpuN), DefaultHeteroAlpha)
		}
		if e.ewmaCPU > 0 && e.ewmaGPU > 0 {
			s := e.ewmaCPU / (e.ewmaCPU + e.ewmaGPU)
			e.share = max(DefaultHeteroMinShare, min(s, 1-DefaultHeteroMinShare))
		}
	}

	e.record(n, gpuN, cpuSec, gpuSec, mergeSec, merged)
	return math.Max(cpuSec, gpuSec) + mergeSec
}

// ewma folds one observation in; the first observation seeds the state.
func ewma(prev, obs, alpha float64) float64 {
	if prev == 0 {
		return obs
	}
	return alpha*obs + (1-alpha)*prev
}

// record emits the epoch's phase decomposition and counters: gradient is the
// overlapped compute (both backends busy), barrier is the slack the faster
// backend spends waiting for the slower, update is the merge. The three sum
// exactly to the returned epoch seconds.
func (e *HeteroEngine) record(n, gpuN int, cpuSec, gpuSec, mergeSec float64, merged bool) {
	e.closeStreams()
	rec, on := e.recorder()
	if !on {
		return
	}
	overlap := math.Min(cpuSec, gpuSec)
	slack := math.Max(cpuSec, gpuSec) - overlap
	rec.Phase(obs.PhaseGradient, overlap)
	rec.Phase(obs.PhaseBarrier, slack)
	rec.Phase(obs.PhaseUpdate, mergeSec)
	rec.Add(obs.CounterWorkerUpdates, int64(n))
	rec.Add(obs.CounterHeteroCPUBatches, int64(e.lastCPUB))
	rec.Add(obs.CounterHeteroGPUBatches, int64(e.lastGPUB))
	if merged {
		rec.Add(obs.CounterHeteroMerges, 1)
	}
	rec.Observe(obs.MetricHeteroGPUShare, float64(gpuN)/float64(n))
}

// heteroStepTask runs CPU replicas [lo, hi) over their contiguous shard of
// the epoch's CPU items. Replica r reads and writes only reps[r]/scrs[r].
type heteroStepTask struct {
	e *HeteroEngine
}

func (t *heteroStepTask) Run(lo, hi int) {
	e := t.e
	for r := lo; r < hi; r++ {
		wr := e.reps[r]
		scr := e.scrs[r]
		for _, i := range e.cpuItems[e.cb[r]:e.cb[r+1]] {
			e.Model.SGDStep(wr, e.Data, i, e.Step, model.RawUpdater{}, scr)
		}
	}
}

var _ Engine = (*HeteroEngine)(nil)
