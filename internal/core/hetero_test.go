package core

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/obs"
)

// heteroSerialReference runs the same epoch the engine executes — same
// shuffle, same split, same per-backend streams — serially, and merges with
// a plain serial weighted mean. Used by the merge property test below.
//
// It reuses the engine's own split bookkeeping (perm/cpuItems/gpuItems are
// deterministic functions of the seed and share), so the only thing under
// test is the merge rule itself.
func heteroSerialWeightedMean(reps [][]float64, wgt []float64) []float64 {
	dim := len(reps[0])
	out := make([]float64, dim)
	ws := 0.0
	for _, v := range wgt {
		ws += v
	}
	for j := 0; j < dim; j++ {
		s := 0.0
		for i, r := range reps {
			if w := wgt[i]; w != 0 {
				s += w * r[j]
			}
		}
		out[j] = s / ws
	}
	return out
}

// Tentpole property test: the sync engine's pool-dispatched weighted merge
// must be bitwise identical to a serial weighted mean of the contributor
// vectors, for arbitrary split ratios including the 0.0 and 1.0 degenerate
// endpoints (where one side contributes weight 0 and the merge must reduce
// to the other side exactly).
func TestHeteroSyncMergeMatchesSerialWeightedMean(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	for _, share := range []float64{0.0, 0.2, 0.5, 0.8, 1.0} {
		e := NewHetero(m, ds, 0.5, 5)
		e.FixedGPUShare = share
		e.SetShuffleSeed(7)
		w := m.InitParams(1)

		// Run one epoch, then replay the merge by hand from the engine's
		// post-epoch contributor state: the contributors still hold their
		// private trajectories (the merge writes only into w).
		e.RunEpoch(w)
		want := heteroSerialWeightedMean(e.merge, e.wgt)
		for j := range want {
			if w[j] != want[j] {
				t.Fatalf("share=%.1f: merged w differs from serial weighted mean at %d: %v vs %v",
					share, j, w[j], want[j])
			}
		}

		cpuB, gpuB := e.LastSplit()
		switch share {
		case 0.0:
			if gpuB != 0 {
				t.Fatalf("share=0: %d GPU batches, want 0", gpuB)
			}
		case 1.0:
			if cpuB != 0 {
				t.Fatalf("share=1: %d CPU batches, want 0", cpuB)
			}
		default:
			if cpuB == 0 || gpuB == 0 {
				t.Fatalf("share=%.1f: degenerate split %d/%d", share, cpuB, gpuB)
			}
		}
	}
}

// The split must cover the shuffle exactly: every example routed to exactly
// one backend, batch counts summing to the batch total, for every share.
func TestHeteroSplitPartitionsEpoch(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 333) // odd: last batch is short
	m := model.NewLR(ds.D())
	for _, share := range []float64{0.0, 0.3, 0.5, 0.9, 1.0} {
		e := NewHetero(m, ds, 0.5, 4)
		e.FixedGPUShare = share
		e.SetShuffleSeed(3)
		e.RunEpoch(m.InitParams(1))
		seen := make([]int, ds.N())
		for _, i := range e.cpuItems {
			seen[i]++
		}
		for _, i := range e.gpuItems {
			seen[i]++
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("share=%.1f: example %d routed %d times", share, i, c)
			}
		}
		cpuB, gpuB := e.LastSplit()
		nb := (ds.N() + DefaultHeteroBatch - 1) / DefaultHeteroBatch
		if cpuB+gpuB != nb {
			t.Fatalf("share=%.1f: %d+%d batches, want %d", share, cpuB, gpuB, nb)
		}
	}
}

// Sync determinism: same seed, same trajectory — the engine is gated on an
// exact golden, so this must hold bitwise across runs (pool scheduling and
// the GPU goroutine overlap included).
func TestDeterministicReplayHeteroSync(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	w1, w2 := runTwice(t, func() Engine { return NewHetero(m, ds, 0.5, 8) }, m, 4)
	expectIdentical(t, "hetero-sync", w1, w2)
}

// Tentpole replay test: two virtual-time runs of the async engine with the
// same seed must produce bitwise-identical loss curves — the sequencer makes
// the CPU/GPU claim-and-blend interleaving a pure function of the seed. Runs
// under -race via the hetero-gate CI job.
func TestDeterministicReplayHeteroAsyncLossCurve(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	curve := func() []float64 {
		e := NewHeteroAsync(m, ds, 0.5, 8)
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
			t.Fatalf("hetero-async replay differs at epoch %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Distinct seeds must draw distinct schedules — the reason hetero-async is
// gated on an envelope, not a golden.
func TestHeteroAsyncSeedsDiffer(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	run := func(seed int64) []float64 {
		e := NewHeteroAsync(m, ds, 0.5, 8)
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
		t.Fatal("different seeds produced identical hetero-async trajectories")
	}
}

// Acceptance-criterion test: under the seeded GPU-straggler plan (worker 0 is
// the GPU), the adaptive split must move at least 20% of the batches from the
// GPU to the CPU within 5 epochs, and the adaptive epoch time must beat the
// static 50/50 split under the same plan.
func TestHeteroAdaptiveShiftsUnderGPUStraggler(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	plan, err := chaos.Lookup("straggler")
	if err != nil {
		t.Fatal(err)
	}

	adaptive := NewHetero(m, ds, 0.5, 8)
	adaptive.SetShuffleSeed(1)
	InjectChaos(adaptive, chaos.New(plan, 1))
	w := m.InitParams(1)
	var firstSplitGPU, lastSec float64
	shifted := false
	for ep := 0; ep < 5; ep++ {
		lastSec = adaptive.RunEpoch(w)
		cpuB, gpuB := adaptive.LastSplit()
		frac := float64(gpuB) / float64(cpuB+gpuB)
		t.Logf("epoch %d: adaptive GPU batch fraction %.2f, modeled %.4g s", ep+1, frac, lastSec)
		if ep == 0 {
			firstSplitGPU = frac
		}
		if firstSplitGPU-frac >= 0.20 {
			shifted = true
		}
	}
	if !shifted {
		t.Fatalf("adaptive split did not shift >=20%% of batches off the straggling GPU within 5 epochs (start %.2f)",
			firstSplitGPU)
	}

	static := NewHetero(m, ds, 0.5, 8)
	static.FixedGPUShare = 0.5
	static.SetShuffleSeed(1)
	InjectChaos(static, chaos.New(plan, 1))
	ws := m.InitParams(1)
	var staticSec float64
	for ep := 0; ep < 5; ep++ {
		staticSec = static.RunEpoch(ws)
	}
	t.Logf("epoch 5 modeled s/epoch: adaptive %.4g vs static 50/50 %.4g", lastSec, staticSec)
	if lastSec >= staticSec {
		t.Fatalf("adaptive epoch under straggler (%g s) did not beat the static 50/50 split (%g s)",
			lastSec, staticSec)
	}
}

// Healthy adaptation sanity: with no chaos the share must converge into the
// clamp interval and stay there (the estimator must not collapse a healthy
// backend to zero work).
func TestHeteroAdaptiveShareStaysBounded(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	e := NewHetero(m, ds, 0.5, 8)
	e.SetShuffleSeed(1)
	w := m.InitParams(1)
	for ep := 0; ep < 6; ep++ {
		sec := e.RunEpoch(w)
		s := e.GPUShare()
		if s < DefaultHeteroMinShare || s > 1-DefaultHeteroMinShare {
			t.Fatalf("epoch %d: share %v escaped [%v, %v]", ep, s, DefaultHeteroMinShare, 1-DefaultHeteroMinShare)
		}
		cpuB, gpuB := e.LastSplit()
		if cpuB == 0 || gpuB == 0 {
			t.Fatalf("epoch %d: healthy adaptive run starved a backend (%d/%d)", ep, cpuB, gpuB)
		}
		t.Logf("epoch %d: healthy GPU batch fraction %.2f, modeled %.4g s",
			ep+1, float64(gpuB)/float64(cpuB+gpuB), sec)
	}
}

// Both engines must honour the observability contract: phases sum exactly to
// the modeled epoch seconds, the batch counters partition the batch count,
// and the async engine reports merges and cross-backend staleness.
func TestHeteroRecordsPhasesAndCounters(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 320)
	m := model.NewLR(ds.D())

	sync := NewHetero(m, ds, 0.5, 6)
	r := runInstrumented(t, sync, m.InitParams(1), 2)
	if !relClose(r.EnginePhaseSum(), r.Seconds, 1e-9) {
		t.Errorf("hetero-sync phase sum %v != modeled seconds %v", r.EnginePhaseSum(), r.Seconds)
	}
	nb := int64(2 * ((ds.N() + DefaultHeteroBatch - 1) / DefaultHeteroBatch))
	if got := r.Counter(obs.CounterHeteroCPUBatches) + r.Counter(obs.CounterHeteroGPUBatches); got != nb {
		t.Errorf("hetero-sync batch counters sum to %d, want %d", got, nb)
	}
	if got := r.Counter(obs.CounterHeteroMerges); got != 2 {
		t.Errorf("hetero-sync merges = %d, want 2 (one per epoch)", got)
	}

	async := NewHeteroAsync(m, ds, 0.5, 6)
	r = runInstrumented(t, async, m.InitParams(1), 2)
	if !relClose(r.EnginePhaseSum(), r.Seconds, 1e-9) {
		t.Errorf("hetero-async phase sum %v != modeled seconds %v", r.EnginePhaseSum(), r.Seconds)
	}
	if got := r.Counter(obs.CounterHeteroMerges); got != r.Counter(obs.CounterHeteroCPUBatches)+r.Counter(obs.CounterHeteroGPUBatches) {
		t.Errorf("hetero-async merges = %d, want one per batch (%d)",
			got, r.Counter(obs.CounterHeteroCPUBatches)+r.Counter(obs.CounterHeteroGPUBatches))
	}
	if r.Counter(obs.CounterHeteroCPUStalenessSum)+r.Counter(obs.CounterHeteroGPUStalenessSum) == 0 {
		t.Error("hetero-async recorded no cross-backend staleness: the streams should interleave")
	}
}

// Chaos threading: the storm plan must surface fault counters through the
// standard drain path on both engines.
func TestHeteroChaosCounters(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 320)
	m := model.NewLR(ds.D())
	plan, err := chaos.Lookup("storm")
	if err != nil {
		t.Fatal(err)
	}

	sync := NewHetero(m, ds, 0.5, 6)
	rec := &countRec{}
	sync.SetRecorder(rec)
	InjectChaos(sync, chaos.New(plan, 1))
	sync.RunEpoch(m.InitParams(1))
	if rec.counts[obs.CounterChaosStraggled] == 0 {
		t.Error("hetero-sync under storm recorded no straggled updates (the GPU is worker 0)")
	}

	async := NewHeteroAsync(m, ds, 0.5, 6)
	rec = &countRec{}
	async.SetRecorder(rec)
	InjectChaos(async, chaos.New(plan, 1))
	async.RunEpoch(m.InitParams(1))
	if rec.counts[obs.CounterChaosStraggled] == 0 {
		t.Error("hetero-async under storm recorded no straggled updates")
	}
}

// Replica/backing-vector dimensions must match the model for all three model
// families — MLP shares the linear engines' merge path because its entire
// parameter vector is one flat []float64 (see DESIGN §17).
func TestHeteroReplicaVectorsMatchModelDim(t *testing.T) {
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
			sync := NewHetero(m, ds, 0.1, 5)
			async := NewHeteroAsync(m, ds, 0.1, 5)
			w1, w2 := m.InitParams(1), m.InitParams(1)
			sync.RunEpoch(w1)
			async.RunEpoch(w2)
			for r := 0; r < 5; r++ {
				if got := len(sync.reps[r]); got != dim {
					t.Errorf("%s sync replica %d: len %d, want %d", m.Name(), r, got, dim)
				}
			}
			if got := len(sync.wGPU); got != dim {
				t.Errorf("%s sync GPU vector: len %d, want %d", m.Name(), got, dim)
			}
			for _, v := range [][]float64{async.pub, async.wCPU, async.wGPU} {
				if len(v) != dim {
					t.Errorf("%s async stream vector: len %d, want %d", m.Name(), len(v), dim)
				}
			}
		})
	}
}
