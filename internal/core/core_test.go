package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/gpusim"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/race"
)

// smallDataset returns a scaled-down registry dataset.
func smallDataset(t testing.TB, name string, n int) (*data.Dataset, data.Spec) {
	t.Helper()
	spec, err := data.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(float64(n) / float64(spec.N))
	ds := data.Generate(spec)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds, spec
}

func TestSyncEnginesAgreeAcrossBackends(t *testing.T) {
	// The paper's ViennaCL property: the same synchronous code on any
	// device computes the same updates, so statistical efficiency is
	// identical by construction. Our backends agree bitwise.
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	backends := []linalg.Backend{linalg.NewCPU(1), linalg.NewCPU(56), linalg.NewK80()}
	results := make([][]float64, len(backends))
	for bi, b := range backends {
		w := m.InitParams(1)
		e := NewSync(b, m, ds, 10)
		for ep := 0; ep < 5; ep++ {
			e.RunEpoch(w)
		}
		results[bi] = w
	}
	// gpu executes the ops sequentially like cpu-seq: bitwise identical.
	for j := range results[0] {
		if results[2][j] != results[0][j] {
			t.Fatalf("gpu diverges from cpu-seq at w[%d]: %v vs %v",
				j, results[2][j], results[0][j])
		}
	}
	// cpu-par reduces partial sums in a different association order:
	// numerically equal within float tolerance.
	for j := range results[0] {
		diff := math.Abs(results[1][j] - results[0][j])
		scale := math.Max(1e-9, math.Abs(results[0][j]))
		if diff/scale > 1e-9 {
			t.Fatalf("cpu-par diverges from cpu-seq at w[%d]: %v vs %v",
				j, results[1][j], results[0][j])
		}
	}
}

func TestSyncEngineReducesLoss(t *testing.T) {
	for _, task := range []string{"lr", "svm"} {
		ds, _ := smallDataset(t, "w8a", 500)
		var m model.BatchModel
		if task == "lr" {
			m = model.NewLR(ds.D())
		} else {
			m = model.NewSVM(ds.D())
		}
		w := m.InitParams(1)
		before := model.MeanLoss(m, w, ds)
		e := NewSync(linalg.NewCPU(56), m, ds, 10)
		for ep := 0; ep < 20; ep++ {
			e.RunEpoch(w)
		}
		after := model.MeanLoss(m, w, ds)
		if after >= before {
			t.Fatalf("%s: sync SGD did not reduce loss: %v -> %v", task, before, after)
		}
	}
}

func TestSyncEngineModeledTimePositiveAndOrdered(t *testing.T) {
	// Hardware efficiency at the paper's full dataset scale: gpu faster
	// than cpu-par faster than cpu-seq (paper Table II ordering).
	ds, spec := smallDataset(t, "rcv1", 2000)
	scale := float64(spec.N) / float64(ds.N()) * 340 // price at full rcv1 size
	m := model.NewLR(ds.D())
	seq := linalg.NewCPU(1)
	seq.WorkScale = scale
	par := linalg.NewCPU(56)
	par.WorkScale = scale
	gpu := linalg.NewK80()
	gpu.WorkScale = scale
	times := map[string]float64{}
	for _, b := range []linalg.Backend{seq, par, gpu} {
		w := m.InitParams(1)
		e := NewSync(b, m, ds, 1)
		sec := e.RunEpoch(w)
		if sec <= 0 {
			t.Fatalf("%s: non-positive modeled epoch time", b.Name())
		}
		times[b.Name()] = sec
	}
	if !(times["gpu"] < times["cpu-par(56)"] && times["cpu-par(56)"] < times["cpu-seq"]) {
		t.Fatalf("sync time ordering violated: %v", times)
	}
}

func TestSyncMiniBatchUpdatesMoreOften(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	full := NewSync(linalg.NewCPU(1), m, ds, 1)
	mini := NewSync(linalg.NewCPU(1), m, ds, 1)
	mini.Batch = 50
	wf := m.InitParams(1)
	wm := m.InitParams(1)
	full.RunEpoch(wf)
	mini.RunEpoch(wm)
	// Mini-batch makes n/B updates per epoch: after one epoch the models
	// must differ.
	same := true
	for j := range wf {
		if wf[j] != wm[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("mini-batch epoch identical to full-batch epoch")
	}
	lf := model.MeanLoss(m, wf, ds)
	lm := model.MeanLoss(m, wm, ds)
	if lm >= lf {
		t.Fatalf("mini-batch should converge faster per epoch: %v vs %v", lm, lf)
	}
}

func TestHogwildSequentialConverges(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 600)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.5, 1)
	w := m.InitParams(1)
	opt := EstimateOptLoss(m, ds, 20)
	res := RunToConvergence(e, m, ds, w, DriverOpts{OptLoss: opt, MaxEpochs: 200})
	if res.EpochsTo[0.10] < 0 {
		t.Fatalf("sequential Hogwild never reached 10%%: final loss %v, opt %v", res.FinalLoss, opt)
	}
	if res.SecPerEpoch <= 0 {
		t.Fatal("no modeled time accrued")
	}
}

func TestHogwildParallelConverges(t *testing.T) {
	// Sparse data: concurrent Hogwild must still converge (the paper's
	// central premise).
	ds, _ := smallDataset(t, "real-sim", 800)
	m := model.NewSVM(ds.D())
	e := NewHogwild(m, ds, 0.5, 56)
	w := m.InitParams(1)
	opt := EstimateOptLoss(m, ds, 20)
	res := RunToConvergence(e, m, ds, w, DriverOpts{OptLoss: opt, MaxEpochs: 300})
	if res.EpochsTo[0.10] < 0 {
		t.Fatalf("parallel Hogwild never reached 10%%: final %v, opt %v", res.FinalLoss, opt)
	}
}

func TestHogwildDenseParallelModeledSlower(t *testing.T) {
	// covtype-like dense data: the modeled epoch must be slower on 56
	// threads than on 1 (coherence conflicts; paper Table III).
	ds, _ := smallDataset(t, "covtype", 1500)
	m := model.NewLR(ds.D())
	seq := NewHogwild(m, ds, 0.01, 1)
	par := NewHogwild(m, ds, 0.01, 56)
	w1 := m.InitParams(1)
	w2 := m.InitParams(1)
	t1 := seq.RunEpoch(w1)
	t2 := par.RunEpoch(w2)
	if t2 <= t1 {
		t.Fatalf("dense Hogwild modeled: par %v <= seq %v", t2, t1)
	}
}

func TestHogwildSparseParallelModeledFaster(t *testing.T) {
	ds, _ := smallDataset(t, "news", 2000)
	m := model.NewLR(ds.D())
	seq := NewHogwild(m, ds, 0.1, 1)
	par := NewHogwild(m, ds, 0.1, 56)
	w1 := m.InitParams(1)
	w2 := m.InitParams(1)
	t1 := seq.RunEpoch(w1)
	t2 := par.RunEpoch(w2)
	if t2 >= t1 {
		t.Fatalf("sparse Hogwild modeled: par %v >= seq %v", t2, t1)
	}
}

func TestHogwildEmulatedMatchesThreadsSemantics(t *testing.T) {
	// The staleness emulation must process every example exactly once
	// per epoch and keep the model finite.
	ds, _ := smallDataset(t, "w8a", 500)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.5, 56) // forced into emulation on small hosts
	w := m.InitParams(1)
	before := model.MeanLoss(m, w, ds)
	e.RunEpoch(w)
	after := model.MeanLoss(m, w, ds)
	if math.IsNaN(after) || after >= before {
		t.Fatalf("emulated epoch loss %v -> %v", before, after)
	}
}

func TestGPUHogwildConverges(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 600)
	m := model.NewLR(ds.D())
	e := NewGPUHogwild(m, ds, 0.5)
	w := m.InitParams(1)
	opt := EstimateOptLoss(m, ds, 20)
	res := RunToConvergence(e, m, ds, w, DriverOpts{OptLoss: opt, MaxEpochs: 400})
	if res.EpochsTo[0.10] < 0 {
		t.Fatalf("GPU Hogwild never reached 10%%: final %v, opt %v", res.FinalLoss, opt)
	}
	if e.LastStats().Updates == 0 {
		t.Fatal("no simulated updates recorded")
	}
}

func TestGPUHogwildDenseNeedsMoreEpochsThanSeq(t *testing.T) {
	// Dense data: warp conflicts destroy updates, so the GPU needs more
	// epochs than sequential SGD for the same threshold (paper Table
	// III: covtype 135 epochs vs 4).
	ds, _ := smallDataset(t, "covtype", 1200)
	m := model.NewLR(ds.D())
	opt := EstimateOptLoss(m, ds, 25)
	step := 0.3

	seq := NewHogwild(m, ds, step, 1)
	wseq := m.InitParams(1)
	rseq := RunToConvergence(seq, m, ds, wseq, DriverOpts{OptLoss: opt, MaxEpochs: 500})

	gpu := NewGPUHogwild(m, ds, step)
	wgpu := m.InitParams(1)
	rgpu := RunToConvergence(gpu, m, ds, wgpu, DriverOpts{OptLoss: opt, MaxEpochs: 500})

	eSeq, eGPU := rseq.EpochsTo[0.05], rgpu.EpochsTo[0.05]
	if eSeq < 0 {
		t.Skipf("sequential did not reach 5%% in budget (opt=%v)", opt)
	}
	if eGPU >= 0 && eGPU < eSeq {
		t.Fatalf("GPU async statistically better than sequential on dense data: %d < %d epochs", eGPU, eSeq)
	}
}

func TestGPUHogwildCombineReducesConflicts(t *testing.T) {
	ds, _ := smallDataset(t, "covtype", 800)
	m := model.NewLR(ds.D())
	plain := NewGPUHogwild(m, ds, 0.1)
	comb := NewGPUHogwild(m, ds, 0.1)
	comb.Combine = true
	w1 := m.InitParams(1)
	w2 := m.InitParams(1)
	plain.RunEpoch(w1)
	comb.RunEpoch(w2)
	if comb.LastStats().LostIntra != 0 {
		t.Fatal("combine mode left intra-warp losses")
	}
	if plain.LastStats().LostIntra == 0 {
		t.Fatal("plain mode on dense data should lose intra-warp updates")
	}
}

func TestHogbatchModesReduceLoss(t *testing.T) {
	spec, _ := data.Lookup("w8a")
	spec = spec.Scaled(1200.0 / float64(spec.N))
	ds := data.Generate(spec)
	mlpDS, err := data.ForMLP(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewMLPFor(spec)
	for _, mode := range []HogbatchMode{HogbatchSeq, HogbatchParCPU, HogbatchGPU} {
		e := NewHogbatch(m, mlpDS, 0.5, mode)
		e.Batch = 128
		// Scale the in-flight depth like the harness does: this run
		// holds 1/54th of the full w8a, so ~1 batch is in flight at
		// the paper-machine concurrency, not all of them.
		e.CostScale = 64700.0 / float64(mlpDS.N())
		w := m.InitParams(1)
		before := model.MeanLoss(m, w, mlpDS)
		var sec float64
		for ep := 0; ep < 10; ep++ {
			sec += e.RunEpoch(w)
		}
		after := model.MeanLoss(m, w, mlpDS)
		if after >= before {
			t.Errorf("%s: loss %v -> %v", e.Name(), before, after)
		}
		if sec <= 0 {
			t.Errorf("%s: no modeled time", e.Name())
		}
	}
}

func TestHogbatchTimingOrder(t *testing.T) {
	// Paper: parallel CPU Hogbatch is fastest per iteration (6x+ over
	// GPU); GPU is ~2x over sequential CPU.
	if race.Enabled {
		// The cpu-par mode races real threads on one shared model — racy
		// by design. One P sends it down its emulated-staleness pipeline,
		// as on a one-core host; the modeled times compared are unchanged.
		old := runtime.GOMAXPROCS(1)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	spec, _ := data.Lookup("real-sim")
	spec = spec.Scaled(2000.0 / float64(spec.N))
	ds := data.Generate(spec)
	mlpDS, err := data.ForMLP(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewMLPFor(spec)
	times := map[HogbatchMode]float64{}
	for _, mode := range []HogbatchMode{HogbatchSeq, HogbatchParCPU, HogbatchGPU} {
		e := NewHogbatch(m, mlpDS, 0.1, mode)
		w := m.InitParams(1)
		times[mode] = e.RunEpoch(w)
	}
	if !(times[HogbatchParCPU] < times[HogbatchGPU]) {
		t.Fatalf("cpu-par %v !< gpu %v", times[HogbatchParCPU], times[HogbatchGPU])
	}
	if !(times[HogbatchGPU] < times[HogbatchSeq]) {
		t.Fatalf("gpu %v !< cpu-seq %v", times[HogbatchGPU], times[HogbatchSeq])
	}
}

func TestDriverInitialConvergence(t *testing.T) {
	// If the initial model already satisfies a tolerance, epoch 0 counts.
	ds, _ := smallDataset(t, "w8a", 200)
	m := model.NewLR(ds.D())
	w := m.InitParams(1)
	init := model.MeanLoss(m, w, ds)
	e := NewHogwild(m, ds, 0.1, 1)
	res := RunToConvergence(e, m, ds, w, DriverOpts{OptLoss: init, MaxEpochs: 3})
	for _, tol := range Tolerances {
		if res.EpochsTo[tol] != 0 {
			t.Fatalf("tol %v: epoch %d, want 0", tol, res.EpochsTo[tol])
		}
		if res.SecondsTo[tol] != 0 {
			t.Fatalf("tol %v: seconds %v, want 0", tol, res.SecondsTo[tol])
		}
	}
}

// nanEngine corrupts the model after a few epochs, to exercise the driver's
// divergence handling.
type nanEngine struct{ epochs int }

func (e *nanEngine) Name() string { return "nan" }
func (e *nanEngine) RunEpoch(w []float64) float64 {
	e.epochs++
	if e.epochs >= 3 {
		w[0] = math.NaN()
	}
	return 0.001
}

func TestDriverDivergenceStops(t *testing.T) {
	ds, _ := smallDataset(t, "covtype", 300)
	m := model.NewLR(ds.D())
	w := m.InitParams(1)
	res := RunToConvergence(&nanEngine{}, m, ds, w, DriverOpts{OptLoss: 0.01, MaxEpochs: 50})
	if res.Converged() {
		t.Fatal("diverged run reported convergence")
	}
	if res.Epochs >= 50 {
		t.Fatalf("driver did not stop on divergence: ran %d epochs", res.Epochs)
	}
	if !math.IsInf(res.SecondsTo[0.01], 1) {
		t.Fatal("unreached tolerance should be +Inf seconds")
	}
}

func TestDriverTimeBudget(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 1e-6, 1) // tiny step: no progress
	w := m.InitParams(1)
	res := RunToConvergence(e, m, ds, w, DriverOpts{
		OptLoss: 1e-9, MaxEpochs: 100000, TimeBudget: e.RunEpoch(m.InitParams(1)) * 3,
	})
	if res.Epochs >= 100000 {
		t.Fatal("time budget did not stop the run")
	}
	if res.Converged() {
		t.Fatal("no-progress run reported convergence (∞ case of Table III)")
	}
}

func TestDriverCurveMonotoneTime(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.5, 1)
	w := m.InitParams(1)
	res := RunToConvergence(e, m, ds, w, DriverOpts{OptLoss: 0, MaxEpochs: 10})
	if len(res.Curve) != res.Epochs+1 {
		t.Fatalf("curve has %d points for %d epochs", len(res.Curve), res.Epochs)
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i].Seconds < res.Curve[i-1].Seconds {
			t.Fatal("curve time not monotone")
		}
		if res.Curve[i].Epoch != i {
			t.Fatal("curve epochs not sequential")
		}
	}
}

func TestThreshold(t *testing.T) {
	if got := Threshold(2, 0.01); math.Abs(got-2.02) > 1e-12 {
		t.Fatalf("Threshold(2, 0.01) = %v", got)
	}
	if got := Threshold(0, 0.01); got >= 0.01 {
		t.Fatalf("zero-optimum threshold too loose: %v", got)
	}
}

func TestTuneStepPicksConvergentStep(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	init := m.InitParams(1)
	step := TuneStep(func(s float64) Engine {
		return NewHogwild(m, ds, s, 1)
	}, m, ds, init, 5)
	if step < 1e-4 || step > 100 {
		t.Fatalf("tuned step %v outside plausible range", step)
	}
	// The tuned step must actually make progress.
	w := append([]float64(nil), init...)
	e := NewHogwild(m, ds, step, 1)
	before := model.MeanLoss(m, w, ds)
	for ep := 0; ep < 5; ep++ {
		e.RunEpoch(w)
	}
	if after := model.MeanLoss(m, w, ds); after >= before {
		t.Fatalf("tuned step does not reduce loss: %v -> %v", before, after)
	}
}

func TestEstimateOptLossBelowInit(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 400)
	m := model.NewLR(ds.D())
	init := model.MeanLoss(m, m.InitParams(1), ds)
	opt := EstimateOptLoss(m, ds, 25)
	if opt >= init {
		t.Fatalf("estimated optimum %v not below initial loss %v", opt, init)
	}
	if opt < 0 {
		t.Fatalf("negative optimal loss %v", opt)
	}
}

func TestOccupancyForN(t *testing.T) {
	dev := gpusim.K80()
	if got := OccupancyForN(dev, 100); got != 1 {
		t.Fatalf("tiny dataset occupancy = %d, want 1", got)
	}
	full := OccupancyForN(dev, 100_000_000)
	if full != dev.Spec.MaxResidentWarps() {
		t.Fatalf("huge dataset occupancy = %d, want device limit %d", full, dev.Spec.MaxResidentWarps())
	}
	mid := OccupancyForN(dev, 581012)
	if mid <= 1 || mid > full {
		t.Fatalf("covtype-scale occupancy = %d", mid)
	}
}
