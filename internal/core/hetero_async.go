package core

import (
	"fmt"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
)

// HeteroAsyncEngine is asynchronous heterogeneous co-training: the CPU pool
// and the simulated GPU free-run as two streams over a dynamically claimed
// batch queue, and each stream merges its private weights into a shared
// published vector the moment a batch completes (apply-on-arrival), instead
// of once per epoch at a barrier. The merge is a convex blend — the arriving
// stream folds MergeBeta of itself into the published vector and adopts the
// result — so neither backend ever waits for the other; a straggling GPU
// simply claims fewer batches while the CPU works ahead, the same
// self-balancing that makes the paper's asynchronous engines storm-robust.
//
// Dynamic claiming IS the adaptive split here: there is no explicit ratio to
// steer, the faster backend naturally absorbs more of the queue, and the
// realised share is reported through MetricHeteroGPUShare. Per-backend
// staleness is counted at each blend as the number of merges the other
// stream published since this stream last synchronised
// (CounterHeteroCPUStalenessSum / CounterHeteroGPUStalenessSum).
//
// The whole epoch executes on a pool.Sequencer (the seeded virtual-time
// cooperative scheduler), so the racy-looking interleaving of claims and
// blends is a pure function of the shuffle seed: two runs with the same seed
// replay bitwise-identical loss curves, under the race detector, on any
// host. Distinct seeds draw genuinely different schedules, so the regress
// harness gates "hetero-async" on a p10–p90 envelope.
//
// Chaos uses the same worker map as HeteroEngine (GPU = worker 0, CPU =
// worker 1): a straggler factor stretches the GPU's per-batch virtual cost,
// drop/dup fates act per CPU step via applyFate, and GPU drop fates act per
// example inside the kernel.
type HeteroAsyncEngine struct {
	Model model.Model
	Data  *data.Dataset
	Step  float64
	// CPUWorkers is K, the CPU backend's modeled parallelism: the CPU
	// stream's virtual cost per batch is batch-units/K. The steps
	// themselves run on the sequencer's single timeline, so the claimed
	// interleaving stays replayable.
	CPUWorkers int
	// Dev is the simulated GPU; MaxWarps caps resident warps (0 uses
	// OccupancyForN).
	Dev      *gpusim.Device
	MaxWarps int
	// Batch is the claim granularity in examples (0 = DefaultHeteroBatch).
	Batch int
	// MergeBeta is the blend weight of the arriving stream (0 = 0.5).
	MergeBeta float64
	// MergeUnits prices one blend (0 = DefaultHeteroBlendUnits);
	// SecPerUnit converts virtual units to modeled seconds.
	MergeUnits float64
	SecPerUnit float64
	// Rec receives phase timings (gradient = compute, update = blends),
	// the hetero batch/merge/staleness counters, and the realised share.
	Rec obs.Recorder
	// Pool is unused for the epoch itself (which runs on a private
	// Sequencer) and reserved for symmetry with the sync engine.
	Pool *pool.Pool
	// Chaos, when enabled, injects per-step fates and straggler costs.
	Chaos *chaos.Controller

	rng    *rand.Rand
	perm   []int
	batch  []int // the GPU's claimed-batch staging buffer
	pub    []float64
	wCPU   []float64
	wGPU   []float64
	scrCPU model.Scratch
	scrGPU model.Scratch
	capCPU captureUpdater
	capGPU captureUpdater
	stats  gpusim.AsyncStats

	lastCPUB int
	lastGPUB int
}

// NewHeteroAsync builds the engine on the K80 with scaled occupancy, the
// default cost model, and a deterministic shuffle seed.
func NewHeteroAsync(m model.Model, ds *data.Dataset, step float64, cpuWorkers int) *HeteroAsyncEngine {
	dev := gpusim.K80()
	return &HeteroAsyncEngine{
		Model:      m,
		Data:       ds,
		Step:       step,
		CPUWorkers: cpuWorkers,
		Dev:        dev,
		MaxWarps:   OccupancyForN(dev, ds.N()),
		rng:        rand.New(rand.NewSource(99)),
	}
}

// Name implements Engine.
func (e *HeteroAsyncEngine) Name() string {
	return fmt.Sprintf("hetero-async/cpu+gpu(%d)", e.CPUWorkers)
}

// SetShuffleSeed implements Seeded.
func (e *HeteroAsyncEngine) SetShuffleSeed(seed int64) {
	e.rng = rand.New(rand.NewSource(seed))
}

// SetRecorder implements Instrumented.
func (e *HeteroAsyncEngine) SetRecorder(r obs.Recorder) { e.Rec = r }

// SetChaos implements ChaosHost.
func (e *HeteroAsyncEngine) SetChaos(c *chaos.Controller) { e.Chaos = c }

// LastSplit returns the realised batch split of the most recent epoch.
func (e *HeteroAsyncEngine) LastSplit() (cpuBatches, gpuBatches int) {
	return e.lastCPUB, e.lastGPUB
}

func (e *HeteroAsyncEngine) prepare() {
	if e.perm != nil {
		return
	}
	n := e.Data.N()
	if e.CPUWorkers < 1 {
		e.CPUWorkers = 1
	}
	if e.Batch < 1 {
		e.Batch = DefaultHeteroBatch
	}
	if e.MergeBeta <= 0 || e.MergeBeta >= 1 {
		e.MergeBeta = 0.5
	}
	if e.MergeUnits <= 0 {
		e.MergeUnits = DefaultHeteroBlendUnits
	}
	if e.SecPerUnit <= 0 {
		e.SecPerUnit = DefaultLocalSecPerUnit
	}
	if e.MaxWarps <= 0 {
		e.MaxWarps = OccupancyForN(e.Dev, n)
	}
	e.perm = make([]int, n)
	for i := range e.perm {
		e.perm[i] = i
	}
	dim := e.Model.NumParams()
	e.batch = make([]int, 0, e.Batch)
	e.pub = model.AlignedVec(dim)
	e.wCPU = model.AlignedVec(dim)
	e.wGPU = model.AlignedVec(dim)
	e.scrCPU = e.Model.NewScratch()
	e.scrGPU = e.Model.NewScratch()
}

// RunEpoch implements Engine: one pass over a fresh shuffle under the
// virtual-time schedule, blending on arrival. Returns the schedule makespan
// in modeled seconds.
func (e *HeteroAsyncEngine) RunEpoch(w []float64) float64 {
	e.prepare()
	n := len(e.perm)
	e.rng.Shuffle(n, func(i, j int) { e.perm[i], e.perm[j] = e.perm[j], e.perm[i] })
	// The scheduler's tie-break seed advances with the shuffle stream, as in
	// AsyncLocalSGDEngine: each epoch draws a fresh, replayable interleaving.
	seqSeed := e.rng.Int63()

	chaosOn := e.Chaos.Enabled() && e.Chaos.Plan.Active()
	var gpuStream, cpuStream *chaos.Stream
	if chaosOn {
		in := e.Chaos.Injector()
		gpuStream = in.Worker(0)
		cpuStream = in.Worker(1)
	}

	copy(e.pub, w)
	copy(e.wCPU, w)
	copy(e.wGPU, w)

	fpe := 4
	if e.Model.Name() == "mlp" {
		fpe = 6
	}
	cfg := gpusim.AsyncConfig{
		MaxWarps:        e.MaxWarps,
		FlopsPerElement: fpe,
		ReadSupport: func(item int) int {
			return e.Model.GradSupport(e.Data, item)
		},
	}
	if chaosOn && e.Chaos.Plan.DropFrac > 0 {
		cfg.FaultDrop = func(item int) bool {
			return gpuStream.Fate() == chaos.FateDrop
		}
	}

	// Shared state below (next, the merge tallies, pub and the stream
	// vectors) is serialised by the Sequencer's resume/park handshake: at
	// most one worker body runs at any moment.
	next := 0
	cpuBatches, gpuBatches := 0, 0
	var mergesCPU, mergesGPU int64
	var seenByCPU, seenByGPU int64 // other stream's merge count at last own blend
	var staleCPU, staleGPU int64
	gpuKernelSec := 0.0

	// blend folds the arriving stream into the published vector and adopts
	// the result; runs inside a turn, so it is part of the replayable
	// schedule. A serial loop, like the async Local-SGD aggregator's fold.
	beta := e.MergeBeta
	blend := func(ws []float64) {
		for j := range e.pub {
			e.pub[j] = (1-beta)*e.pub[j] + beta*ws[j]
		}
		copy(ws, e.pub)
	}

	s := pool.NewSequencer(seqSeed)
	// CPU stream: claim a batch, step it on the private CPU vector at the
	// pool-parallel virtual rate (batch units / K), then blend.
	s.Go(func(t *pool.Turn) {
		for next < n {
			lo := next
			hi := lo + e.Batch
			if hi > n {
				hi = n
			}
			next = hi
			units := 0.0
			for _, i := range e.perm[lo:hi] {
				cost := 1.0
				fate := chaos.FateApply
				if cpuStream != nil {
					fate = cpuStream.Fate()
					cost = cpuStream.Cost()
				}
				e.capCPU.idx = e.capCPU.idx[:0]
				e.capCPU.delta = e.capCPU.delta[:0]
				e.Model.SGDStep(e.wCPU, e.Data, i, e.Step, &e.capCPU, e.scrCPU)
				applyFate(fate, model.RawUpdater{}, e.wCPU, &e.capCPU)
				units += cost
			}
			t.Tick(units / float64(e.CPUWorkers))
			staleCPU += mergesGPU - seenByCPU
			blend(e.wCPU)
			mergesCPU++
			seenByCPU = mergesGPU
			cpuBatches++
			t.Tick(e.MergeUnits)
		}
	})
	// GPU stream: claim a batch, run it as one kernel on the private GPU
	// vector, pay the modeled kernel time (stretched by chaos/skew) in
	// virtual units, then blend.
	s.Go(func(t *pool.Turn) {
		for next < n {
			lo := next
			hi := lo + e.Batch
			if hi > n {
				hi = n
			}
			next = hi
			e.batch = append(e.batch[:0], e.perm[lo:hi]...)
			st := e.Dev.RunAsyncEpoch(e.batch, cfg, func(item int, emit func(int, float64)) {
				e.capGPU.idx = e.capGPU.idx[:0]
				e.capGPU.delta = e.capGPU.delta[:0]
				e.Model.SGDStep(e.wGPU, e.Data, item, e.Step, &e.capGPU, e.scrGPU)
				for kk, ix := range e.capGPU.idx {
					emit(ix, e.capGPU.delta[kk])
				}
			}, func(idx int, delta float64) {
				e.wGPU[idx] += delta
			})
			e.stats = st
			sec := st.Cost.Seconds
			if gpuStream != nil {
				sec *= gpuStream.Cost()
			}
			gpuKernelSec += sec
			t.Tick(sec / e.SecPerUnit)
			staleGPU += mergesCPU - seenByGPU
			blend(e.wGPU)
			mergesGPU++
			seenByGPU = mergesCPU
			gpuBatches++
			t.Tick(e.MergeUnits)
		}
	})
	s.Run()

	copy(w, e.pub)
	e.lastCPUB = cpuBatches
	e.lastGPUB = gpuBatches

	makespan := s.Makespan()
	sec := makespan * e.SecPerUnit
	e.record(n, cpuBatches, gpuBatches, mergesCPU+mergesGPU, staleCPU, staleGPU,
		sec, chaosOn, gpuStream, cpuStream)
	return sec
}

// record emits the epoch's phases and counters: update is the blend work,
// gradient the rest of the makespan (the two sum exactly to the returned
// epoch seconds — there is no barrier in this engine).
func (e *HeteroAsyncEngine) record(n, cpuBatches, gpuBatches int, merges, staleCPU, staleGPU int64,
	epochSec float64, chaosOn bool, gpuStream, cpuStream *chaos.Stream) {
	if chaosOn {
		gpuStream.Flush()
		cpuStream.Flush()
	}
	if e.Chaos.Enabled() {
		e.Chaos.Drain(e.Rec)
	}
	rec := obs.Or(e.Rec)
	if !obs.Enabled(rec) {
		return
	}
	upd := float64(merges) * e.MergeUnits * e.SecPerUnit
	if upd > epochSec {
		upd = epochSec
	}
	rec.Phase(obs.PhaseGradient, epochSec-upd)
	rec.Phase(obs.PhaseUpdate, upd)
	rec.Add(obs.CounterWorkerUpdates, int64(n))
	rec.Add(obs.CounterHeteroCPUBatches, int64(cpuBatches))
	rec.Add(obs.CounterHeteroGPUBatches, int64(gpuBatches))
	rec.Add(obs.CounterHeteroMerges, merges)
	rec.Add(obs.CounterHeteroCPUStalenessSum, staleCPU)
	rec.Add(obs.CounterHeteroGPUStalenessSum, staleGPU)
	if nb := cpuBatches + gpuBatches; nb > 0 {
		rec.Observe(obs.MetricHeteroGPUShare, float64(gpuBatches)/float64(nb))
	}
}

var _ Engine = (*HeteroAsyncEngine)(nil)
var _ Seeded = (*HeteroAsyncEngine)(nil)
var _ Instrumented = (*HeteroAsyncEngine)(nil)
var _ ChaosHost = (*HeteroAsyncEngine)(nil)
