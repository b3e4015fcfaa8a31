package core

import (
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
)

// Satellite property test: every replica's private vector must be exactly
// the model dimension — an off-by-one in the aligned-copy sizing (the
// spmvCost class of bug) would silently truncate or over-read gradients —
// and the vectors must start cache-line-aligned (the point of AlignedVec).
func TestLocalReplicaVectorsMatchModelDim(t *testing.T) {
	ds, spec := smallDataset(t, "w8a", 200)
	models := []model.Model{
		model.NewLR(ds.D()),
		model.NewSVM(ds.D()),
		model.NewMLPFor(spec),
	}
	for _, m := range models {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			dim := m.NumParams()
			sync := NewLocalSGD(m, ds, 0.1, 5, 4)
			async := NewAsyncLocalSGD(m, ds, 0.1, 5, 4)
			w1, w2 := m.InitParams(1), m.InitParams(1)
			sync.RunEpoch(w1)
			async.RunEpoch(w2)
			if len(sync.reps) != 5 || len(async.reps) != 5 {
				t.Fatalf("replica counts %d/%d, want 5", len(sync.reps), len(async.reps))
			}
			for r := 0; r < 5; r++ {
				if got := len(sync.reps[r]); got != dim {
					t.Errorf("%s sync replica %d: len %d, want model dim %d", m.Name(), r, got, dim)
				}
				if got := len(async.reps[r]); got != dim {
					t.Errorf("%s async replica %d: len %d, want model dim %d", m.Name(), r, got, dim)
				}
			}
			if got := len(async.pub); got != dim {
				t.Errorf("%s published vector: len %d, want %d", m.Name(), got, dim)
			}
		})
	}
}

// serialMean is the reference reduction: per component, replicas summed in
// ascending order, divided by the weight sum.
func serialMean(reps [][]float64, wgt []float64) []float64 {
	dim := len(reps[0])
	out := make([]float64, dim)
	for j := 0; j < dim; j++ {
		s, ws := 0.0, 0.0
		for i, r := range reps {
			w := 1.0
			if wgt != nil {
				w = wgt[i]
			}
			if w != 0 {
				s += w * r[j]
			}
			ws += w
		}
		out[j] = s / ws
	}
	return out
}

// Satellite property test: the pool-dispatched reduction must be bitwise
// identical to the serial mean, for power-of-two and odd replica counts —
// the property holds because components are partitioned (never split) across
// chunks and each component sums its replicas in a fixed order; a pairwise
// tree over replicas would break it, floating-point addition not being
// associative.
func TestLocalReductionMatchesSerialMean(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	const dim = 4097 // odd and larger than reduceGrain: multiple chunks
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		reps := make([][]float64, k)
		for r := range reps {
			reps[r] = model.AlignedVec(dim)
			for j := range reps[r] {
				reps[r][j] = rng.NormFloat64()
			}
		}
		t.Run("", func(t *testing.T) {
			got := make([]float64, dim)
			task := reduceTask{dst: got, reps: reps, wsum: float64(k)}
			p.RunGrain(p.Size(), dim, reduceGrain, &task)
			want := serialMean(reps, nil)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("K=%d: parallel mean differs at component %d: %v vs %v", k, j, got[j], want[j])
				}
			}
			// The weighted path (chaos rounds) must agree with the weighted
			// serial fold too, including a dropped and a duplicated replica.
			wgt := make([]float64, k)
			for i := range wgt {
				wgt[i] = 1
			}
			wgt[0] = 2
			if k > 1 {
				wgt[k-1] = 0
			}
			ws := 0.0
			for _, v := range wgt {
				ws += v
			}
			task = reduceTask{dst: got, reps: reps, wgt: wgt, wsum: ws}
			p.RunGrain(p.Size(), dim, reduceGrain, &task)
			want = serialMean(reps, wgt)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("K=%d: weighted parallel mean differs at component %d: %v vs %v", k, j, got[j], want[j])
				}
			}
		})
	}
}

func TestDeterministicReplayLocalSync(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	w1, w2 := runTwice(t, func() Engine { return NewLocalSGD(m, ds, 0.5, 8, 4) }, m, 4)
	expectIdentical(t, "local-sync", w1, w2)
}

// Satellite replay test: two virtual-time runs of the async engine with the
// same seed must produce bitwise-identical loss curves — the sequencer makes
// the timer/replica interleaving a pure function of the seed. Runs under
// -race via the chaos CI job (the sequencer's handshake provides the
// happens-before edges).
func TestDeterministicReplayAsyncLocalSGDLossCurve(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	curve := func() []float64 {
		e := NewAsyncLocalSGD(m, ds, 0.5, 8, 4)
		e.SetShuffleSeed(42)
		w := m.InitParams(3)
		var losses []float64
		losses = append(losses, model.MeanLoss(m, w, ds))
		for ep := 0; ep < 5; ep++ {
			e.RunEpoch(w)
			losses = append(losses, model.MeanLoss(m, w, ds))
		}
		return losses
	}
	a, b := curve(), curve()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("async local-sgd replay differs at epoch %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Distinct seeds must draw distinct schedules/shuffles — the reason the
// regress harness gates local-async on an envelope, not a golden.
func TestAsyncLocalSGDSeedsDiffer(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	run := func(seed int64) []float64 {
		e := NewAsyncLocalSGD(m, ds, 0.5, 8, 4)
		e.SetShuffleSeed(seed)
		w := m.InitParams(3)
		for ep := 0; ep < 3; ep++ {
			e.RunEpoch(w)
		}
		return w
	}
	a, b := run(1), run(2)
	same := true
	for j := range a {
		if a[j] != b[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical async local-sgd trajectories")
	}
}

// The modeled epoch time must fall monotonically as H grows at fixed K:
// fewer reduction rounds on the critical path — the hardware-efficiency half
// of the Local-SGD frontier (the logged rows are DESIGN §16's H-sweep).
func TestLocalSyncEpochTimeDecreasesWithH(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	prev := -1.0
	for _, h := range []int{1, 4, 16, 64} {
		e := NewLocalSGD(m, ds, 0.5, 8, h)
		w := m.InitParams(1)
		sec := e.RunEpoch(w)
		t.Logf("K=8 H=%-2d modeled %.4g s/epoch", h, sec)
		if prev > 0 && sec >= prev {
			t.Fatalf("H=%d: modeled epoch %g s >= H-previous %g s; want strictly decreasing", h, sec, prev)
		}
		prev = sec
	}
}

// Both engines must emit the local-SGD observability contract: phase sums
// matching modeled seconds, round counters, and (async) the staleness sum.
func TestLocalSGDRecordsRoundsAndStaleness(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 240)
	m := model.NewLR(ds.D())
	sync := NewLocalSGD(m, ds, 0.5, 6, 4)
	r := runInstrumented(t, sync, m.InitParams(1), 2)
	// 40 examples per replica, H=4: 10 rounds per epoch, 2 epochs.
	if got := r.Counter(obs.CounterLocalRounds); got != 20 {
		t.Errorf("local-sync rounds = %d, want 20", got)
	}
	if got := r.Counter(obs.CounterWorkerUpdates); got != int64(2*ds.N()) {
		t.Errorf("local-sync worker_updates = %d, want %d", got, 2*ds.N())
	}
	if !relClose(r.EnginePhaseSum(), r.Seconds, 1e-9) {
		t.Errorf("local-sync phase sum %v != modeled seconds %v", r.EnginePhaseSum(), r.Seconds)
	}

	async := NewAsyncLocalSGD(m, ds, 0.5, 6, 4)
	r = runInstrumented(t, async, m.InitParams(1), 2)
	if r.Counter(obs.CounterLocalRounds) == 0 {
		t.Error("local-async recorded no aggregation rounds")
	}
	if r.Counter(obs.CounterLocalStalenessSum) == 0 {
		t.Error("local-async recorded no staleness: replicas should drift between timer firings")
	}
	if !relClose(r.EnginePhaseSum(), r.Seconds, 1e-9) {
		t.Errorf("local-async phase sum %v != modeled seconds %v", r.EnginePhaseSum(), r.Seconds)
	}
}

// Chaos threading: a storm plan must surface straggled/dropped counters
// through the standard drain path on both engines, and the sync engine's
// faulted epoch must stretch (the straggler delays every round).
func TestLocalSGDChaosCountersAndStretch(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 240)
	m := model.NewLR(ds.D())

	sync := NewLocalSGD(m, ds, 0.5, 6, 4)
	w := m.InitParams(1)
	healthy := sync.RunEpoch(w)
	plan, err := chaos.Lookup("storm")
	if err != nil {
		t.Fatal(err)
	}
	rec := &countRec{}
	sync.SetRecorder(rec)
	InjectChaos(sync, chaos.New(plan, 1))
	faulted := sync.RunEpoch(w)
	if faulted <= healthy {
		t.Errorf("storm did not stretch the local-sync epoch: %g <= %g", faulted, healthy)
	}
	if rec.counts[obs.CounterChaosStraggled] == 0 {
		t.Error("local-sync under storm recorded no straggled rounds")
	}

	async := NewAsyncLocalSGD(m, ds, 0.5, 6, 4)
	rec = &countRec{}
	async.SetRecorder(rec)
	InjectChaos(async, chaos.New(plan, 1))
	async.RunEpoch(m.InitParams(1))
	if rec.counts[obs.CounterChaosStraggled] == 0 {
		t.Error("local-async under storm recorded no straggled updates")
	}
}
