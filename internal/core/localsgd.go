package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
)

// Local-SGD cost-model defaults, in the same abstract work units the
// parameter-server tier prices with: one local gradient step costs one unit.
const (
	// DefaultLocalReduceUnits is the modeled cost of one averaging round —
	// the allreduce latency of folding K replica vectors into a mean and
	// broadcasting it back. It is charged once per round regardless of K
	// (the reduction is itself parallel), which is what makes the rounds/H
	// trade-off a real frontier: at H=1 the epoch is reduction-dominated,
	// at large H the local compute dominates.
	DefaultLocalReduceUnits = 32.0
	// DefaultLocalSecPerUnit converts work units to modeled seconds
	// (1 unit ~ one sparse gradient step ~ 1us on the paper machine).
	DefaultLocalSecPerUnit = 1e-6
)

// LocalSGDEngine is synchronous Local SGD: K pool-backed replicas each hold a
// private cache-line-aligned copy of the model, take H local SGD steps on
// their own shard of the epoch's shuffle, and then barrier-average — the
// published model becomes the mean of the replica vectors and every replica
// restarts from it. The barrier costs what the round wrote, not d·K: each
// replica records the components it writes (touchUpdater), and the merge
// averages the union of those write sets in place — every other component is
// already equal in the published vector and all replicas (see merge).
// H=1 degenerates to per-step-averaged mini-batch SGD
// (maximum statistical efficiency, maximum communication); H = shard length
// is one-shot averaging (no communication until the epoch ends). Sweeping H
// walks the hardware-vs-statistical-efficiency frontier between the paper's
// barriered synchronous engines and free-running Hogwild.
//
// Replicas touch only private state between barriers (vector, scratch, shard
// segment), so the pool-dispatched epoch is bitwise deterministic for a fixed
// shuffle seed regardless of scheduling — which is why the regress harness
// gates "local-sync" on an exact golden curve, not an envelope.
//
// Under a chaos plan, faults act at round granularity (the natural unit of
// this engine's communication): a straggling replica delays the whole round —
// the barrier cannot fire without its contribution, so the round's reduction
// cost stretches by the straggler factor — and a dropped fate loses the
// replica's entire H-step contribution for that round (it rejoins from the
// average, its local work discarded), a duplicated fate double-weights it.
//
// One averaging round is priced at DefaultLocalReduceUnits and units convert
// to modeled seconds at DefaultLocalSecPerUnit. The recorder receives
// per-phase timings (gradient = local steps, update = reduction rounds,
// barrier = straggler slack), the update and round counters, and each
// replica's share of the epoch's updates.
type LocalSGDEngine struct {
	poolHooks
	shuffle
	Model model.Model
	Data  *data.Dataset
	Step  float64
	// Replicas is K: the number of private model copies stepping in
	// parallel (clamped to the dataset size on first use).
	Replicas int
	// H is the number of local steps each replica takes between averaging
	// barriers.
	H int

	bounds []int          // replica shard bounds over perm (contiguous, equal±1)
	reps   [][]float64    // private replica vectors, 64B-aligned
	upds   []touchUpdater // per-replica write-set recorders
	scrs   []model.Scratch
	wgt    []float64 // per-round receive weights under chaos
	shares []float64
	stepT  localStepTask
	reduce reduceTask
	bcast  broadcastTask
}

// NewLocalSGD builds the engine with the default cost model and a
// deterministic shuffle seed.
func NewLocalSGD(m model.Model, ds *data.Dataset, step float64, replicas, h int) *LocalSGDEngine {
	return &LocalSGDEngine{
		shuffle:  newShuffle(),
		Model:    m,
		Data:     ds,
		Step:     step,
		Replicas: replicas,
		H:        h,
	}
}

// Name implements Engine.
func (e *LocalSGDEngine) Name() string {
	return fmt.Sprintf("local-sync/cpu-par(%d)h%d", e.Replicas, e.H)
}

// prepare builds the replica state once: private aligned vectors sized to
// the model dimension, per-replica scratches, and the contiguous shard
// bounds over the permutation (replica r owns perm[bounds[r]:bounds[r+1]],
// shard lengths differing by at most one).
func (e *LocalSGDEngine) prepare() {
	n := e.Data.N()
	if !e.fill(n) {
		return
	}
	e.Replicas = max(1, min(e.Replicas, n))
	e.H = max(1, e.H)
	k := e.Replicas
	dim := e.Model.NumParams()
	e.bounds = make([]int, k+1)
	e.reps, e.scrs = newReplicas(e.Model, k)
	e.upds = make([]touchUpdater, k)
	e.wgt = make([]float64, k)
	e.shares = make([]float64, k)
	for r := 0; r < k; r++ {
		e.bounds[r] = r * n / k
		e.upds[r] = touchUpdater{
			stamp: make([]uint32, dim),
			list:  make([]int32, 0, dim),
		}
	}
	e.bounds[k] = n
	for r := 0; r < k; r++ {
		e.shares[r] = float64(e.bounds[r+1]-e.bounds[r]) / float64(n)
	}
}

// segLen is how many local steps replica r takes in the round starting at
// shard offset off: min(H, remaining shard), never negative.
func (e *LocalSGDEngine) segLen(r, off int) int {
	return max(0, min(e.H, e.bounds[r+1]-e.bounds[r]-off))
}

// RunEpoch implements Engine: one pass over a fresh shuffle, in rounds of up
// to H local steps per replica followed by a barrier average.
func (e *LocalSGDEngine) RunEpoch(w []float64) float64 {
	e.prepare()
	e.reshuffle()
	k := e.Replicas
	p := e.workerPool()
	streams := e.openStreams(k) // nil = healthy rounds

	// Every replica starts the epoch from the published model, with empty
	// write sets (an all-dropped final round may have left some behind).
	e.bcast = broadcastTask{src: w, reps: e.reps}
	p.Run(k, k, &e.bcast)
	e.newRound()

	var gradUnits, reduceUnits, extraUnits float64
	rounds := 0
	var merged int64
	for off := 0; ; off += e.H {
		longest := 0
		for r := 0; r < k; r++ {
			if s := e.segLen(r, off); s > longest {
				longest = s
			}
		}
		if longest == 0 {
			break
		}
		// Local phase: each replica advances its private vector on its own
		// shard segment. Only private state is touched, so pool scheduling
		// cannot perturb the result.
		e.stepT = localStepTask{e: e, off: off}
		p.Run(k, k, &e.stepT)
		rounds++
		gradUnits += float64(longest)
		reduceUnits += DefaultLocalReduceUnits

		// Round fates: drawn in replica order on the caller, deterministic.
		// Idle replicas (exhausted shard) keep weight 1 — they re-submit the
		// previous average unchanged, which keeps the barrier a true mean.
		wsum := float64(k)
		weighted := false
		for r := 0; r < k; r++ {
			e.wgt[r] = 1
		}
		if streams != nil {
			maxCost := 1.0
			for r := 0; r < k; r++ {
				if e.segLen(r, off) == 0 {
					continue
				}
				if c := streams[r].Cost(); c > maxCost {
					maxCost = c
				}
				if t := fateTimes(streams[r].Fate()); t != 1 {
					e.wgt[r] = float64(t)
					weighted = true
				}
			}
			// The barrier waits for the slowest contribution: the round's
			// synchronisation cost stretches by the straggler factor.
			extraUnits += (maxCost - 1) * DefaultLocalReduceUnits
			wsum = 0
			for r := 0; r < k; r++ {
				wsum += e.wgt[r]
			}
			if wsum == 0 {
				// Every contribution dropped: no average to publish; the
				// replicas carry their local progress — and their write
				// sets — into the next round.
				continue
			}
		}

		// Barrier average: the published vector and every replica leave the
		// round holding the replica-ordered mean.
		if weighted {
			// Receive weights other than 1 move even components nobody
			// wrote (a dropped replica's share is redistributed), so a
			// faulted round folds and rebroadcasts the whole vector.
			e.reduce = reduceTask{dst: w, reps: e.reps, wgt: e.wgt, wsum: wsum}
			p.RunGrain(p.Size(), len(w), reduceGrain, &e.reduce)
			p.Run(k, k, &e.bcast)
			merged += int64(len(w))
		} else {
			merged += int64(e.merge(w))
		}
		e.newRound()
	}

	e.record(rounds, merged, gradUnits, reduceUnits, extraUnits)
	return (gradUnits + reduceUnits + extraUnits) * DefaultLocalSecPerUnit
}

// merge is the healthy barrier average: it visits the union of the replicas'
// write sets once and leaves w[j] and every replica's j holding the
// replica-ordered mean (summed ascending from 0.0, divided by K — reduceTask's
// arithmetic), returning how many components it averaged. It runs serially on
// the caller: a sparse round writes on the order of K·H·nnz components, too
// little to pay a pool wake-up for (DESIGN §16 has the measurements, and why
// rounds that write most of the model get no dense fold of their own).
// Replica 0's stamps double as the union's "seen" marks: a component listed
// by a later replica is skipped if replica 0 wrote it or an earlier replica
// already brought it here.
func (e *LocalSGDEngine) merge(w []float64) int {
	k := float64(len(e.reps))
	first := &e.upds[0]
	n := 0
	for r := range e.upds {
		for _, j32 := range e.upds[r].list {
			j := int(j32)
			if r > 0 {
				if first.stamp[j] == first.round {
					continue
				}
				first.stamp[j] = first.round
			}
			s := 0.0
			for _, rep := range e.reps {
				s += rep[j]
			}
			m := s / k
			w[j] = m
			for _, rep := range e.reps {
				rep[j] = m
			}
			n++
		}
	}
	return n
}

// newRound empties every replica's write set.
func (e *LocalSGDEngine) newRound() {
	for r := range e.upds {
		e.upds[r].reset()
	}
}

// record emits the epoch's phase decomposition and counters.
func (e *LocalSGDEngine) record(rounds int, merged int64, gradUnits, reduceUnits, extraUnits float64) {
	e.closeStreams()
	rec, on := e.recorder()
	if !on {
		return
	}
	rec.Phase(obs.PhaseGradient, gradUnits*DefaultLocalSecPerUnit)
	rec.Phase(obs.PhaseUpdate, reduceUnits*DefaultLocalSecPerUnit)
	if extraUnits > 0 {
		rec.Phase(obs.PhaseBarrier, extraUnits*DefaultLocalSecPerUnit)
	}
	rec.Add(obs.CounterWorkerUpdates, int64(len(e.perm)))
	rec.Add(obs.CounterLocalRounds, int64(rounds))
	rec.Add(obs.CounterLocalMergedComponents, merged)
	for _, s := range e.shares {
		rec.Observe(obs.MetricWorkerShare, s)
	}
}

// localStepTask runs replicas [lo, hi) through one round of local steps.
// Replica r reads and writes only reps[r]/upds[r]/scrs[r] and its own shard
// segment.
type localStepTask struct {
	e   *LocalSGDEngine
	off int
}

func (t *localStepTask) Run(lo, hi int) {
	e := t.e
	for r := lo; r < hi; r++ {
		seg := e.segLen(r, t.off)
		if seg == 0 {
			continue
		}
		wr := e.reps[r]
		upd := &e.upds[r]
		scr := e.scrs[r]
		start := e.bounds[r] + t.off
		for _, i := range e.perm[start : start+seg] {
			e.Model.SGDStep(wr, e.Data, i, e.Step, upd, scr)
		}
	}
}

// touchUpdater is the model.Updater a replica steps through: the plain
// store of RawUpdater (the vector is private) plus a record of which
// components the replica has written since the last barrier merge. Every
// Model.SGDStep lands all of its writes through the Updater's two methods,
// so the list is the replica's complete write set for LR, SVM and MLP alike.
//
// stamp[i] == round marks component i as already listed, so the list holds
// each component once (it is allocated at d entries and never grows) and
// emptying it is a counter bump, not a clear.
type touchUpdater struct {
	stamp []uint32
	list  []int32
	round uint32
	_     [64]byte // replicas append concurrently: keep their headers on separate cache lines
}

// AddScaled implements model.Updater.
func (u *touchUpdater) AddScaled(w []float64, off int, cols []int32, vals []float64, a float64) {
	for k, c := range cols {
		i := off + int(c)
		w[i] += a * vals[k]
		u.touch(i)
	}
}

// AddDense implements model.Updater.
func (u *touchUpdater) AddDense(w []float64, off int, g []float64, a float64) {
	for k, v := range g {
		w[off+k] += a * v
		u.touch(off + k)
	}
}

// touch lists component i unless it is already listed this round.
func (u *touchUpdater) touch(i int) {
	if u.stamp[i] != u.round {
		u.stamp[i] = u.round
		u.list = append(u.list, int32(i))
	}
}

// reset empties the write set by moving to a fresh stamp value.
func (u *touchUpdater) reset() {
	u.list = u.list[:0]
	u.round++
	if u.round == 0 {
		// The stamp wrapped: old marks would read as current.
		clear(u.stamp)
		u.round = 1
	}
}

// reduceGrain sizes the component chunks of the pool-dispatched reduction.
const reduceGrain = 2048

// reduceTask averages the replica vectors into dst over component ranges:
// the pool fans the dimension out in chunks, and within each component the
// replicas are summed in ascending replica order and divided by the weight
// sum. Because every component is owned by exactly one chunk and the
// per-component summation order is fixed, the parallel reduction is bitwise
// identical to the serial mean (asserted by TestLocalReductionMatchesSerialMean)
// — a pairwise tree over replicas would not be, floating-point addition not
// being associative.
//
// wgt is nil for a plain mean over len(reps); under chaos it carries the
// round's receive weights (0 dropped, 2 duplicated) with wsum their sum.
type reduceTask struct {
	dst  []float64
	reps [][]float64
	wgt  []float64
	wsum float64
}

func (t *reduceTask) Run(lo, hi int) {
	if t.wgt == nil {
		for j := lo; j < hi; j++ {
			s := 0.0
			for _, r := range t.reps {
				s += r[j]
			}
			t.dst[j] = s / t.wsum
		}
		return
	}
	for j := lo; j < hi; j++ {
		s := 0.0
		for i, r := range t.reps {
			if w := t.wgt[i]; w != 0 {
				s += w * r[j]
			}
		}
		t.dst[j] = s / t.wsum
	}
}

// newReplicas allocates k private cache-line-aligned copies of m's parameter
// vector and a scratch for each.
func newReplicas(m model.Model, k int) (reps [][]float64, scrs []model.Scratch) {
	reps = make([][]float64, k)
	scrs = make([]model.Scratch, k)
	for r := range reps {
		reps[r] = model.AlignedVec(m.NumParams())
		scrs[r] = m.NewScratch()
	}
	return reps, scrs
}

// broadcastTask copies the published vector into replicas [lo, hi).
type broadcastTask struct {
	src  []float64
	reps [][]float64
}

func (t *broadcastTask) Run(lo, hi int) {
	for r := lo; r < hi; r++ {
		copy(t.reps[r], t.src)
	}
}

var _ Engine = (*LocalSGDEngine)(nil)
