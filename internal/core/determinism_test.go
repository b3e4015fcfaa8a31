package core

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/model"
)

// Engines built from identical inputs with identical seeds must replay
// bitwise-identical trajectories (the emulated-staleness and simulated-GPU
// paths are deterministic by design; only true goroutine races are not).

func runTwice(t *testing.T, mk func() Engine, m model.Model, epochs int) ([]float64, []float64) {
	t.Helper()
	w1 := m.InitParams(1)
	e1 := mk()
	for ep := 0; ep < epochs; ep++ {
		e1.RunEpoch(w1)
	}
	w2 := m.InitParams(1)
	e2 := mk()
	for ep := 0; ep < epochs; ep++ {
		e2.RunEpoch(w2)
	}
	return w1, w2
}

func expectIdentical(t *testing.T, name string, w1, w2 []float64) {
	t.Helper()
	for j := range w1 {
		if w1[j] != w2[j] {
			t.Fatalf("%s: non-deterministic replay at w[%d]: %v vs %v", name, j, w1[j], w2[j])
		}
	}
}

func TestDeterministicReplaySequentialHogwild(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	w1, w2 := runTwice(t, func() Engine { return NewHogwild(m, ds, 0.5, 1) }, m, 5)
	expectIdentical(t, "hogwild-seq", w1, w2)
}

func TestDeterministicReplayEmulatedHogwild(t *testing.T) {
	ds, _ := smallDataset(t, "real-sim", 400)
	m := model.NewSVM(ds.D())
	// 56 modeled threads on this host use the emulation path, which is
	// deterministic given the seed.
	w1, w2 := runTwice(t, func() Engine { return NewHogwild(m, ds, 0.5, 56) }, m, 4)
	expectIdentical(t, "hogwild-emulated", w1, w2)
}

func TestDeterministicReplayGPUHogwild(t *testing.T) {
	ds, _ := smallDataset(t, "covtype", 300)
	m := model.NewLR(ds.D())
	w1, w2 := runTwice(t, func() Engine { return NewGPUHogwild(m, ds, 0.1) }, m, 4)
	expectIdentical(t, "gpu-hogwild", w1, w2)
}

func TestDeterministicReplaySync(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	w1, w2 := runTwice(t, func() Engine {
		return NewSync(newSeqBackendForTest(), m, ds, 1)
	}, m, 4)
	expectIdentical(t, "sync", w1, w2)
}

func TestShuffleSeedChangesTrajectory(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	mk := func(seed int64) []float64 {
		e := NewHogwild(m, ds, 0.5, 1)
		e.SetShuffleSeed(seed)
		w := m.InitParams(1)
		e.RunEpoch(w)
		return w
	}
	w1, w2 := mk(1), mk(2)
	same := true
	for j := range w1 {
		if w1[j] != w2[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different shuffle seeds produced identical trajectories")
	}
}

// newSeqBackendForTest builds a sequential CPU backend without importing
// linalg at every call site.
func newSeqBackendForTest() linalg.Backend { return linalg.NewCPU(1) }
