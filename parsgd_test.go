package parsgd

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/race"
)

// TestFacadeEndToEnd exercises the full public API surface the way the
// README shows it: dataset -> model -> engine -> convergence.
func TestFacadeEndToEnd(t *testing.T) {
	if race.Enabled {
		// Four real threads racing on one shared model are racy by design.
		// One P sends the engine down its deterministic emulation, as on a
		// one-core host; the assertions are unchanged.
		old := runtime.GOMAXPROCS(1)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	spec, err := LookupDataset("w8a")
	if err != nil {
		t.Fatal(err)
	}
	ds := GenerateDataset(spec.Scaled(800.0 / float64(spec.N)))
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	st := DatasetStatsOf(ds)
	if st.Features != 300 {
		t.Fatalf("w8a features = %d", st.Features)
	}

	m := NewLR(ds.D())
	init := m.InitParams(1)
	opt := EstimateOptLoss(m, ds, 20)
	e := NewHogwildEngine(m, ds, 0.5, 4)
	w := append([]float64(nil), init...)
	res := RunToConvergence(e, m, ds, w, DriverOpts{OptLoss: opt, MaxEpochs: 150})
	if res.EpochsTo[0.10] < 0 {
		t.Fatalf("no convergence to 10%%: final %v opt %v", res.FinalLoss, opt)
	}
}

func TestFacadeAllEightConfigurations(t *testing.T) {
	// One epoch of every point in the paper's configuration cube must
	// run and reduce (or at least not corrupt) the model.
	spec, err := LookupDataset("w8a")
	if err != nil {
		t.Fatal(err)
	}
	ds := GenerateDataset(spec.Scaled(600.0 / float64(spec.N)))
	m := NewLR(ds.D())
	mlpDS, err := GroupFeatures(ds, spec.MLPInputs)
	if err != nil {
		t.Fatal(err)
	}
	mlp := NewMLP(spec.MLPLayers())

	engines := map[string]Engine{
		"sync/cpu-seq":  NewSyncEngine(NewCPUBackend(1), m, ds, 1),
		"sync/cpu-par":  NewSyncEngine(NewCPUBackend(56), m, ds, 1),
		"sync/gpu":      NewSyncEngine(NewGPUBackend(), m, ds, 1),
		"async/cpu-seq": NewHogwildEngine(m, ds, 0.5, 1),
		"async/cpu-par": NewHogwildEngine(m, ds, 0.5, 56),
		"async/gpu":     NewGPUHogwildEngine(m, ds, 0.5),
		"hogbatch/seq":  NewHogbatchEngine(mlp, mlpDS, 0.5, HogbatchSeq),
		"hogbatch/par":  NewHogbatchEngine(mlp, mlpDS, 0.5, HogbatchParCPU),
		"hogbatch/gpu":  NewHogbatchEngine(mlp, mlpDS, 0.5, HogbatchGPU),
	}
	if race.Enabled {
		// Real threads racing on one shared model are racy by design (that
		// asynchrony is the paper's subject); under -race the cube keeps its
		// sequential, synchronous and simulated-GPU points.
		delete(engines, "async/cpu-par")
		delete(engines, "hogbatch/par")
	}
	for name, e := range engines {
		var w []float64
		var mm Model
		if name[:3] == "hog" {
			w = mlp.InitParams(1)
			mm = mlp
		} else {
			w = m.InitParams(1)
			mm = m
		}
		sec := e.RunEpoch(w)
		if sec <= 0 {
			t.Errorf("%s: non-positive modeled time", name)
		}
		var dsUse *Dataset
		if name[:3] == "hog" {
			dsUse = mlpDS
		} else {
			dsUse = ds
		}
		loss := MeanLoss(mm, w, dsUse)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Errorf("%s: loss corrupted: %v", name, loss)
		}
	}
}

func TestFacadeHardwareSpecs(t *testing.T) {
	if PaperCPU().TotalThreads() != 56 {
		t.Fatal("paper CPU threads")
	}
	if PaperGPU().MPs*PaperGPU().CoresPerMP != 2496 {
		t.Fatal("paper GPU cores")
	}
	if K80().Spec.WarpSize != 32 {
		t.Fatal("warp size")
	}
	if len(DatasetNames()) != 5 {
		t.Fatal("dataset registry size")
	}
}

func TestFacadeTuneStep(t *testing.T) {
	spec, _ := LookupDataset("covtype")
	ds := GenerateDataset(spec.Scaled(500.0 / float64(spec.N)))
	m := NewSVM(ds.D())
	init := m.InitParams(1)
	step := TuneStep(func(s float64) Engine {
		return NewHogwildEngine(m, ds, s, 1)
	}, m, ds, init, 4)
	if step <= 0 {
		t.Fatalf("tuned step %v", step)
	}
}
