package core

import (
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestEngineContracts holds every in-package constructor to what its
// interface set claims, one table row per engine:
//
//   - Instrumented: a recorder attaches and an epoch emits at least one phase.
//   - Seeded ⇔ the seed reaches the trajectory: two different seeds give
//     different first-epoch weights and the same seed replays bit for bit; an
//     engine that is not Seeded draws nothing random and replays anyway.
//   - ChaosHost: every engine is one, and the controller reaches the epoch:
//     under the storm plan at least one chaos_* counter reaches the recorder, and a detached
//     controller (SetChaos(nil)) leaves the healthy bits untouched.
//
// Every row runs on a per-seed-deterministic path: modeled thread counts above
// GOMAXPROCS (pinned to 2) take the emulated pipelines, one thread runs alone,
// the async replica engine runs on the sequencer, the GPU engines on the
// simulator.
func TestEngineContracts(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })

	sparse, _ := smallDataset(t, "w8a", 300)
	dense, denseSpec := smallDataset(t, "covtype", 300)
	lr := model.NewLR(sparse.D())
	denseLR := model.NewLR(dense.D())
	mlp := model.NewMLPFor(denseSpec)
	// hogbatch builds an MLP Hogbatch row at batch 32; Threads 1 runs the
	// parallel mode's real pool path with one worker.
	hogbatch := func(mode HogbatchMode, threads int) func() Engine {
		return func() Engine {
			e := NewHogbatch(mlp, dense, 0.1, mode)
			e.Batch = 32
			e.Threads = threads
			return e
		}
	}

	rows := []struct {
		name   string
		m      model.Model
		mk     func() Engine
		seeded bool
	}{
		{"sync", denseLR, func() Engine { return NewSync(linalg.NewCPU(1), denseLR, dense, 0.5) }, false},
		{"hogwild/seq", lr, func() Engine { return NewHogwild(lr, sparse, 0.5, 1) }, true},
		{"hogwild/emulated", lr, func() Engine { return NewHogwild(lr, sparse, 0.5, 56) }, true},
		{"gpu-hogwild", denseLR, func() Engine { return NewGPUHogwild(denseLR, dense, 0.1) }, true},
		{"hogbatch/mlp", mlp, hogbatch(HogbatchParCPU, 56), false},
		{"hogbatch/par-1", mlp, hogbatch(HogbatchParCPU, 1), false},
		{"hogbatch/seq", mlp, hogbatch(HogbatchSeq, 56), false},
		{"hogbatch/gpu", mlp, hogbatch(HogbatchGPU, 56), false},
		{"local-sync", lr, func() Engine { return NewLocalSGD(lr, sparse, 0.5, 4, 4) }, true},
		{"local-async", lr, func() Engine { return NewAsyncLocalSGD(lr, sparse, 0.5, 4, 4) }, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// epoch runs one instrumented epoch of a fresh engine after prep.
			epoch := func(prep func(Engine)) ([]float64, obs.RunStats) {
				e := row.mk()
				if prep != nil {
					prep(e)
				}
				w := row.m.InitParams(1)
				return w, runInstrumented(t, e, w, 1)
			}
			seeded := func(seed int64) []float64 {
				w, _ := epoch(func(e Engine) {
					if !Seed(e, seed) {
						t.Fatal("Seed refused an engine that implements Seeded")
					}
				})
				return w
			}

			base, stats := epoch(nil)
			if _, ok := row.mk().(Instrumented); !ok {
				t.Fatal("engine is not Instrumented")
			}
			if stats.EnginePhaseSum() <= 0 {
				t.Fatalf("attached recorder saw no phase time: %+v", stats.PhaseSeconds)
			}

			if _, ok := row.mk().(Seeded); ok != row.seeded {
				t.Fatalf("Seeded = %v, want %v", ok, row.seeded)
			}
			if row.seeded {
				a, b := seeded(1), seeded(1)
				expectIdentical(t, row.name+" seed 1", a, b)
				if sameBits(a, seeded(2)) {
					t.Fatal("seeds 1 and 2 gave identical first-epoch weights: the seed does not reach the trajectory")
				}
			} else {
				again, _ := epoch(nil)
				expectIdentical(t, row.name+" unseeded", base, again)
			}

			if _, ok := row.mk().(ChaosHost); !ok {
				t.Fatal("engine is not a ChaosHost")
			}
			storm, err := chaos.Lookup("storm")
			if err != nil {
				t.Fatal(err)
			}
			ctl := chaos.New(storm, 11)
			ctl.Sequential = true
			ctl.Deadline = 2 // the barriered engines report the storm as shortfall
			_, faulted := epoch(func(e Engine) { InjectChaos(e, ctl) })
			var faults int64
			for c := obs.CounterChaosDrops; c <= obs.CounterChaosPartitioned; c++ {
				faults += faulted.Counter(c)
			}
			if faults == 0 {
				t.Fatal("no chaos_* counter reached the recorder under storm: the engine ignores its controller")
			}
			detached, _ := epoch(func(e Engine) { InjectChaos(e, nil) })
			expectIdentical(t, row.name+" SetChaos(nil)", base, detached)
		})
	}
}

func sameBits(a, b []float64) bool {
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}
