package serve

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/tensor"
)

// divergingEngine stands in for a training run that blows up: its first
// epoch moves every weight by a finite step, every later epoch writes a NaN.
type divergingEngine struct{ epochs int }

func (e *divergingEngine) Name() string { return "diverging" }

func (e *divergingEngine) RunEpoch(w []float64) float64 {
	e.epochs++
	for i := range w {
		w[i] += 0.5
	}
	if e.epochs > 1 {
		w[0] = math.NaN()
	}
	return 1e-3
}

// A diverged online trainer must not hot-swap NaN into /predict: the first
// publish after the NaN is refused and counted, training stops there, and the
// store keeps serving the last finite snapshot.
func TestTrainerRefusesNonFiniteWeights(t *testing.T) {
	spec, err := data.Lookup("covtype")
	if err != nil {
		t.Fatal(err)
	}
	ds := data.Generate(spec.Scaled(50 / float64(spec.N)))
	m := model.NewLR(ds.D())
	store := NewStore()
	tr := &Trainer{
		Engine: &divergingEngine{}, Model: m, Data: ds, Store: store,
		W: m.InitParams(1), PublishEvery: 1, MaxEpochs: 50,
	}
	eng := tr.Engine.(*divergingEngine)
	tr.Run(make(chan struct{}))

	sn := store.Load()
	// Version 1 is the initial model, version 2 the finite epoch-1 weights;
	// epoch 2 holds a NaN.
	if sn == nil || sn.Version != 2 || sn.Epoch != 1 {
		t.Fatalf("installed snapshot %+v, want version 2 from epoch 1", sn)
	}
	if !tensor.AllFinite(sn.Weights) {
		t.Fatal("the installed snapshot holds non-finite weights")
	}
	if got := tr.Refused(); got != 1 {
		t.Fatalf("Refused() = %d, want 1 (epoch 2)", got)
	}
	if eng.epochs != 2 || tr.Epochs != 2 {
		t.Fatalf("trainer ran %d epochs (%d RunEpoch calls), want 2: it must stop at the first refusal", tr.Epochs, eng.epochs)
	}
}
