package core

import (
	"math"
	"testing"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
)

// chaosDataset builds a small deterministic dataset for the replay tests.
func chaosDataset(t *testing.T) *data.Dataset {
	t.Helper()
	ds, _ := smallDataset(t, "w8a", 300)
	return ds
}

// runChaosEpochs runs a fresh Hogwild engine for `epochs` under a chaos
// controller and returns the final weights.
func runChaosEpochs(t *testing.T, ds *data.Dataset, chaosSeed int64, epochs int) []float64 {
	t.Helper()
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.1, 8)
	e.SetShuffleSeed(42)
	c := chaos.New(chaos.Plan{
		Name: "test", Stragglers: 1, StragglerFactor: 10,
		DropFrac: 0.05, DupFrac: 0.02, Staleness: 8,
	}, chaosSeed)
	c.Sequential = true
	if !InjectChaos(e, c) {
		t.Fatal("HogwildEngine does not accept a chaos controller")
	}
	w := make([]float64, m.NumParams())
	for i := 0; i < epochs; i++ {
		e.RunEpoch(w)
	}
	return w
}

// TestHogwildChaosReplayBitwise is the tentpole acceptance test: two runs
// with the same shuffle and chaos seeds produce bitwise-identical weights
// even though the execution is an 8-way racy Hogwild interleaving; a
// different chaos seed permutes the schedule and faults, changing the
// result.
func TestHogwildChaosReplayBitwise(t *testing.T) {
	ds := chaosDataset(t)
	a := runChaosEpochs(t, ds, 7, 3)
	b := runChaosEpochs(t, ds, 7, 3)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("weights diverge at %d: %x vs %x (replay not bitwise)",
				j, math.Float64bits(a[j]), math.Float64bits(b[j]))
		}
	}
	other := runChaosEpochs(t, ds, 8, 3)
	same := true
	for j := range a {
		if a[j] != other[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different chaos seeds produced identical weights — the seed is not reaching the schedule")
	}
}

// TestHogwildChaosSlowdownAsymmetry checks the modeled-time story on the
// engines themselves: a 10x straggler stretches a Hogwild epoch only by
// ~N/((N-S)+S/F). TestSyncChaosDeadline is the barriered side of the
// asymmetry: the same straggler multiplies a sync epoch by ~F.
func TestHogwildChaosSlowdownAsymmetry(t *testing.T) {
	ds := chaosDataset(t)
	plan := chaos.Plan{Name: "straggler", Stragglers: 1, StragglerFactor: 10}

	m := model.NewLR(ds.D())
	hog := NewHogwild(m, ds, 0.1, 8)
	hog.SetShuffleSeed(1)
	w := make([]float64, m.NumParams())
	healthy := hog.RunEpoch(w)

	hog2 := NewHogwild(model.NewLR(ds.D()), ds, 0.1, 8)
	hog2.SetShuffleSeed(1)
	c := chaos.New(plan, 3)
	c.Sequential = true
	InjectChaos(hog2, c)
	w2 := make([]float64, m.NumParams())
	faulted := hog2.RunEpoch(w2)

	// The analytic stretch for 1-of-8 at 10x is ~1.13; on a 300-update
	// epoch the straggler's final coarse claim adds a discretization tail,
	// so allow up to 2x — the point is the asymmetry against the 10x a
	// barriered epoch pays.
	ratio := faulted / healthy
	if want := plan.AsyncSlowdown(8); ratio < want-0.05 || ratio > 2 {
		t.Errorf("hogwild epoch stretched %.3fx, want within [%.3f, 2.0]", ratio, want)
	}
}

// TestSyncChaosDeadline: an undeadlined sync epoch pays the straggler's full
// factor; a deadlined one is capped and counts the shortfall.
func TestSyncChaosDeadline(t *testing.T) {
	ds := chaosDataset(t)
	plan := chaos.Plan{Name: "straggler", Stragglers: 1, StragglerFactor: 10}
	build := func() (*SyncEngine, []float64) {
		m := model.NewLR(ds.D())
		e := NewSync(linalg.NewCPU(1), m, ds, 0.5)
		return e, make([]float64, m.NumParams())
	}

	base, wb := build()
	healthy := base.RunEpoch(wb)

	bsp, w1 := build()
	c1 := chaos.New(plan, 1)
	c1.Workers = 8
	InjectChaos(bsp, c1)
	undeadlined := bsp.RunEpoch(w1)
	if r := (undeadlined - bsp.EpochOverhead) / (healthy - base.EpochOverhead); r < 9.9 || r > 10.1 {
		t.Errorf("undeadlined sync epoch stretched %.3fx, want 10x", r)
	}

	dl, w2 := build()
	c2 := chaos.New(plan, 1)
	c2.Workers = 8
	c2.Deadline = 2
	InjectChaos(dl, c2)
	rec := &countRec{}
	dl.SetRecorder(rec)
	deadlined := dl.RunEpoch(w2)
	if r := (deadlined - dl.EpochOverhead) / (healthy - base.EpochOverhead); r < 1.9 || r > 2.1 {
		t.Errorf("deadlined sync epoch stretched %.3fx, want 2x", r)
	}
	if rec.counts[obs.CounterChaosShortfall] == 0 {
		t.Error("deadlined sync epoch recorded no shortfall")
	}
	// The deadlined update landed scaled by the received fraction, so the
	// two weight vectors must differ.
	same := true
	for j := range w1 {
		if w1[j] != w2[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("deadline changed nothing about the applied update")
	}
}

// countRec counts counter adds.
type countRec struct {
	counts [48]int64
}

func (r *countRec) Phase(obs.Phase, float64)    {}
func (r *countRec) Observe(obs.Metric, float64) {}
func (r *countRec) EndEpoch(float64)            {}
func (r *countRec) Add(c obs.Counter, d int64)  { r.counts[c] += d }

// TestGPUChaosDrops: the drop plan reaches the simulator's FaultDrop hook
// and shows up in AsyncStats.
func TestGPUChaosDrops(t *testing.T) {
	ds := chaosDataset(t)
	m := model.NewLR(ds.D())
	e := NewGPUHogwild(m, ds, 0.1)
	c := chaos.New(chaos.Plan{Name: "drops", DropFrac: 0.3}, 5)
	InjectChaos(e, c)
	w := make([]float64, m.NumParams())
	e.RunEpoch(w)
	st := e.LastStats()
	if st.Dropped == 0 {
		t.Fatal("simulator saw no dropped items under a 30% drop plan")
	}
	frac := float64(st.Dropped) / float64(ds.N())
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("dropped fraction %.3f, want ~0.3", frac)
	}
}
