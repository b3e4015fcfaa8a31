package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
)

// AsyncLocalSGDEngine is asynchronous Local SGD: K replicas free-run over a
// dynamically claimed shuffle on private cache-line-aligned model copies
// while a timer worker averages them every ~H virtual time units and
// publishes the mean; each replica adopts the latest published average at
// its next step and continues from it. No replica ever blocks on the
// aggregation — the timer's reduce cost stays off the compute critical path,
// which is exactly the asymmetry against the barriered LocalSGDEngine that
// the chaos tests measure (a straggler delays only its own contribution, not
// the round).
//
// The whole epoch executes on a pool.Sequencer (a seeded virtual-time
// cooperative scheduler), so the racy-looking interleaving of replica steps
// and timer firings is a pure function of the shuffle seed: two runs with
// the same seed replay bitwise-identical loss curves, under the race
// detector, on any host. That determinism is per seed, not per engine — the
// regress harness still gates "local-async" on a quantile envelope because
// distinct seeds draw genuinely different schedules.
//
// Staleness accounting: at each timer firing the aggregator sums, over
// replicas, the local steps taken since the replica last adopted a published
// average (CounterLocalStalenessSum); the firing count is
// CounterLocalRounds. Larger H buys fewer reductions at more drift —
// the statistical half of the H frontier (DESIGN §16).
//
// One timer aggregation is priced at DefaultLocalReduceUnits and the
// virtual-time makespan converts to modeled seconds at
// DefaultLocalSecPerUnit. The recorder receives phase timings,
// update/round/staleness counters and per-replica claim shares; Pool
// dispatches only the final (post-schedule) reduction. An enabled chaos plan
// injects per-step fates and straggler costs into the replica streams; a
// straggler simply claims fewer examples.
type AsyncLocalSGDEngine struct {
	poolHooks
	shuffle
	Model model.Model
	Data  *data.Dataset
	Step  float64
	// Replicas is K (clamped to the dataset size on first use).
	Replicas int
	// H is the aggregation interval in virtual work units: the timer fires
	// every H + DefaultLocalReduceUnits units, during which an unhindered replica takes
	// about that many unit-cost local steps.
	H int

	reps       [][]float64
	scrs       []model.Scratch
	caps       []captureUpdater
	pub        []float64
	stepsSince []int
	claims     []int64
	shares     []float64
	reduce     reduceTask
}

// NewAsyncLocalSGD builds the engine with the default cost model and a
// deterministic shuffle seed.
func NewAsyncLocalSGD(m model.Model, ds *data.Dataset, step float64, replicas, h int) *AsyncLocalSGDEngine {
	return &AsyncLocalSGDEngine{
		shuffle:  newShuffle(),
		Model:    m,
		Data:     ds,
		Step:     step,
		Replicas: replicas,
		H:        h,
	}
}

// Name implements Engine.
func (e *AsyncLocalSGDEngine) Name() string {
	return fmt.Sprintf("local-async/cpu-par(%d)h%d", e.Replicas, e.H)
}

func (e *AsyncLocalSGDEngine) prepare() {
	n := e.Data.N()
	if !e.fill(n) {
		return
	}
	e.Replicas = max(1, min(e.Replicas, n))
	e.H = max(1, e.H)
	k := e.Replicas
	e.reps, e.scrs = newReplicas(e.Model, k)
	e.caps = make([]captureUpdater, k)
	e.pub = model.AlignedVec(e.Model.NumParams())
	e.stepsSince = make([]int, k)
	e.claims = make([]int64, k)
	e.shares = make([]float64, k)
}

// RunEpoch implements Engine: one pass over a fresh shuffle under the
// virtual-time schedule, aggregating on the timer. Returns the schedule
// makespan in modeled seconds.
func (e *AsyncLocalSGDEngine) RunEpoch(w []float64) float64 {
	e.prepare()
	n := len(e.perm)
	e.reshuffle()
	// The scheduler's tie-break seed advances with the shuffle stream: each
	// epoch (and each harness seed) draws a fresh, replayable interleaving.
	seqSeed := e.rng.Int63()
	k := e.Replicas
	streams := e.openStreams(k) // nil = healthy steps

	copy(e.pub, w)
	for r := 0; r < k; r++ {
		copy(e.reps[r], w)
		e.stepsSince[r] = 0
		e.claims[r] = 0
	}

	// All shared mutable state below (next, version, replicasDone, the
	// replica vectors, pub) is serialised by the Sequencer's resume/park
	// handshake: at most one worker body runs at any moment, with
	// happens-before edges between consecutive turns.
	next := 0
	version := 0
	replicasDone := 0
	rounds := 0
	var stalenessSum int64

	s := pool.NewSequencer(seqSeed)
	for r := 0; r < k; r++ {
		r := r
		s.Go(func(t *pool.Turn) {
			wr := e.reps[r]
			scr := e.scrs[r]
			capt := &e.caps[r]
			var stream *chaos.Stream
			if streams != nil {
				stream = streams[r]
			}
			basis := 0
			for {
				if basis < version {
					// Adopt the latest published average and continue from it.
					copy(wr, e.pub)
					basis = version
					e.stepsSince[r] = 0
				}
				if next >= n {
					break
				}
				i := e.perm[next]
				next++
				e.claims[r]++
				cost := fatedStep(stream, e.Model, e.Data, wr, i, e.Step, capt, scr)
				e.stepsSince[r]++
				t.Tick(cost)
			}
			replicasDone++
		})
	}
	// The timer: fire every H + ReduceUnits virtual units, average the
	// replica vectors into the published model, bump the version. Replicas
	// never wait on it — they adopt the new average lazily at their next
	// step.
	s.Go(func(t *pool.Turn) {
		period := float64(e.H) + DefaultLocalReduceUnits
		for replicasDone < k {
			t.Tick(period)
			if replicasDone == k {
				break
			}
			for r := 0; r < k; r++ {
				stalenessSum += int64(e.stepsSince[r])
			}
			// Folded serially inside the timer's turn: dispatching on the
			// shared pool here would interleave real goroutines with the
			// sequenced schedule.
			e.reduce = reduceTask{dst: e.pub, reps: e.reps, wsum: float64(k)}
			e.reduce.Run(0, len(e.pub))
			version++
			rounds++
		}
	})
	s.Run()

	// Epoch result: the mean of the replica trajectories, folded with the
	// same component-parallel replica-ordered reduction the sync engine
	// uses (the schedule has ended; the pool is free).
	e.reduce = reduceTask{dst: w, reps: e.reps, wsum: float64(k)}
	p := e.workerPool()
	p.RunGrain(p.Size(), len(w), reduceGrain, &e.reduce)

	sec := s.Makespan() * DefaultLocalSecPerUnit
	e.record(n, rounds, stalenessSum, sec)
	return sec
}

// record emits the epoch's phases and counters: gradient = the balanced
// compute share, update = the timer's aggregation work, barrier = the
// remaining makespan (claim imbalance and straggler overhang).
func (e *AsyncLocalSGDEngine) record(n, rounds int, stalenessSum int64, sec float64) {
	e.closeStreams()
	rec, on := e.recorder()
	if !on {
		return
	}
	grad := float64(n) / float64(e.Replicas) * DefaultLocalSecPerUnit
	upd := float64(rounds) * DefaultLocalReduceUnits * DefaultLocalSecPerUnit
	rec.Phase(obs.PhaseGradient, grad)
	rec.Phase(obs.PhaseUpdate, upd)
	if rest := sec - grad - upd; rest > 0 {
		rec.Phase(obs.PhaseBarrier, rest)
	}
	rec.Add(obs.CounterWorkerUpdates, int64(n))
	rec.Add(obs.CounterLocalRounds, int64(rounds))
	rec.Add(obs.CounterLocalStalenessSum, stalenessSum)
	for r := 0; r < e.Replicas; r++ {
		e.shares[r] = float64(e.claims[r]) / float64(n)
		rec.Observe(obs.MetricWorkerShare, e.shares[r])
	}
}

var _ Engine = (*AsyncLocalSGDEngine)(nil)
