package core

import (
	"fmt"

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
// stream folds half of itself (heteroMergeBeta) into the published vector and
// adopts the result — so neither backend ever waits for the other; a straggling GPU
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
//
// Batches are claimed DefaultHeteroBatch examples at a time and one blend is
// priced at DefaultHeteroBlendUnits. The recorder receives phase timings
// (gradient = compute, update = blends), the hetero batch/merge/staleness
// counters, and the realised share.
type HeteroAsyncEngine struct {
	hooks
	shuffle
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
		shuffle:    newShuffle(),
		Model:      m,
		Data:       ds,
		Step:       step,
		CPUWorkers: cpuWorkers,
		Dev:        dev,
		MaxWarps:   OccupancyForN(dev, ds.N()),
	}
}

// Name implements Engine.
func (e *HeteroAsyncEngine) Name() string {
	return fmt.Sprintf("hetero-async/cpu+gpu(%d)", e.CPUWorkers)
}

// LastSplit returns the realised batch split of the most recent epoch.
func (e *HeteroAsyncEngine) LastSplit() (cpuBatches, gpuBatches int) {
	return e.lastCPUB, e.lastGPUB
}

func (e *HeteroAsyncEngine) prepare() {
	n := e.Data.N()
	if !e.fill(n) {
		return
	}
	e.CPUWorkers = max(1, e.CPUWorkers)
	if e.MaxWarps <= 0 {
		e.MaxWarps = OccupancyForN(e.Dev, n)
	}
	dim := e.Model.NumParams()
	e.batch = make([]int, 0, DefaultHeteroBatch)
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
	e.reshuffle()
	// The scheduler's tie-break seed advances with the shuffle stream, as in
	// AsyncLocalSGDEngine: each epoch draws a fresh, replayable interleaving.
	seqSeed := e.rng.Int63()

	var gpuStream, cpuStream *chaos.Stream
	if streams := e.openStreams(2); streams != nil {
		gpuStream, cpuStream = streams[0], streams[1]
	}

	copy(e.pub, w)
	copy(e.wCPU, w)
	copy(e.wGPU, w)

	cfg := gpuAsyncConfig(e.Model, e.Data, e.MaxWarps)
	cfg.FaultDrop = e.faultDrop(gpuStream)
	gpuStep := emitStep(e.Model, e.Data, e.wGPU, e.Step, &e.capGPU, e.scrGPU)
	gpuLand := addTo(e.wGPU)

	// Shared state below (next, the merge tallies, pub and the stream
	// vectors) is serialised by the Sequencer's resume/park handshake: at
	// most one worker body runs at any moment.
	next := 0
	cpuBatches, gpuBatches := 0, 0
	var mergesCPU, mergesGPU int64
	var seenByCPU, seenByGPU int64 // other stream's merge count at last own blend
	var staleCPU, staleGPU int64

	// blend folds the arriving stream into the published vector and adopts
	// the result; runs inside a turn, so it is part of the replayable
	// schedule. A serial loop, like the async Local-SGD aggregator's fold.
	blend := func(ws []float64) {
		for j := range e.pub {
			e.pub[j] = (1-heteroMergeBeta)*e.pub[j] + heteroMergeBeta*ws[j]
		}
		copy(ws, e.pub)
	}

	s := pool.NewSequencer(seqSeed)
	// CPU stream: claim a batch, step it on the private CPU vector at the
	// pool-parallel virtual rate (batch units / K), then blend.
	s.Go(func(t *pool.Turn) {
		for next < n {
			lo := next
			hi := min(lo+DefaultHeteroBatch, n)
			next = hi
			units := 0.0
			for _, i := range e.perm[lo:hi] {
				units += fatedStep(cpuStream, e.Model, e.Data, e.wCPU, i, e.Step, &e.capCPU, e.scrCPU)
			}
			t.Tick(units / float64(e.CPUWorkers))
			staleCPU += mergesGPU - seenByCPU
			blend(e.wCPU)
			mergesCPU++
			seenByCPU = mergesGPU
			cpuBatches++
			t.Tick(DefaultHeteroBlendUnits)
		}
	})
	// GPU stream: claim a batch, run it as one kernel on the private GPU
	// vector, pay the modeled kernel time (stretched by chaos/skew) in
	// virtual units, then blend.
	s.Go(func(t *pool.Turn) {
		for next < n {
			lo := next
			hi := min(lo+DefaultHeteroBatch, n)
			next = hi
			e.batch = append(e.batch[:0], e.perm[lo:hi]...)
			st := e.Dev.RunAsyncEpoch(e.batch, cfg, gpuStep, gpuLand)
			e.stats = st
			sec := st.Cost.Seconds
			if gpuStream != nil {
				sec *= gpuStream.Cost()
			}
			t.Tick(sec / DefaultLocalSecPerUnit)
			staleGPU += mergesCPU - seenByGPU
			blend(e.wGPU)
			mergesGPU++
			seenByGPU = mergesCPU
			gpuBatches++
			t.Tick(DefaultHeteroBlendUnits)
		}
	})
	s.Run()

	copy(w, e.pub)
	e.lastCPUB = cpuBatches
	e.lastGPUB = gpuBatches

	sec := s.Makespan() * DefaultLocalSecPerUnit
	e.record(n, cpuBatches, gpuBatches, mergesCPU+mergesGPU, staleCPU, staleGPU, sec)
	return sec
}

// record emits the epoch's phases and counters: update is the blend work,
// gradient the rest of the makespan (the two sum exactly to the returned
// epoch seconds — there is no barrier in this engine).
func (e *HeteroAsyncEngine) record(n, cpuBatches, gpuBatches int, merges, staleCPU, staleGPU int64, epochSec float64) {
	e.closeStreams()
	rec, on := e.recorder()
	if !on {
		return
	}
	upd := float64(merges) * DefaultHeteroBlendUnits * DefaultLocalSecPerUnit
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
