package ps

import (
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
)

// psDataset generates the gate-scale covtype sample the engine tests train
// on (dense LR, 55 params → 4 stripe-aligned shards).
func psDataset(t *testing.T, n int) *data.Dataset {
	t.Helper()
	spec, err := data.Lookup("covtype")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(float64(n) / float64(spec.N))
	return data.Generate(spec)
}

func newTestEngine(t *testing.T, mode Mode, ds *data.Dataset, step float64) (*Engine, model.Model) {
	t.Helper()
	m := model.NewLR(ds.D())
	e := NewEngine(mode, m, ds, step, 4, 4)
	e.SetShuffleSeed(1)
	return e, m
}

// meanLoss is the driver-side loss the convergence assertions use.
func meanLoss(m model.Model, w []float64, ds *data.Dataset) float64 {
	return model.MeanLoss(m, w, ds)
}

// runEpochs drives an engine and returns final weights and summed modeled
// seconds.
func runEpochs(e *Engine, m model.Model, epochs int) ([]float64, float64) {
	w := m.InitParams(1)
	var sec float64
	for i := 0; i < epochs; i++ {
		sec += e.RunEpoch(w)
	}
	return w, sec
}

// TestEngineSyncDeterministic: the barriered path is single-threaded in
// worker order, so identical seeds replay bitwise — the property its golden
// gate stands on.
func TestEngineSyncDeterministic(t *testing.T) {
	ds := psDataset(t, 200)
	e1, m1 := newTestEngine(t, ModeSync, ds, 0.5)
	e2, _ := newTestEngine(t, ModeSync, ds, 0.5)
	w1, sec1 := runEpochs(e1, m1, 3)
	w2, sec2 := runEpochs(e2, m1, 3)
	if sec1 != sec2 {
		t.Fatalf("modeled seconds differ: %g vs %g", sec1, sec2)
	}
	for j := range w1 {
		if w1[j] != w2[j] {
			t.Fatalf("weights diverge at %d: %x vs %x", j, math.Float64bits(w1[j]), math.Float64bits(w2[j]))
		}
	}
}

// TestEngineConverges: both modes must actually train — the loss after a
// few epochs through the sharded tier drops well below the initial loss.
func TestEngineConverges(t *testing.T) {
	ds := psDataset(t, 200)
	for _, mode := range []Mode{ModeSync, ModeAsync} {
		e, m := newTestEngine(t, mode, ds, 0.3)
		w := m.InitParams(1)
		init := meanLoss(m, w, ds)
		for i := 0; i < 6; i++ {
			e.RunEpoch(w)
		}
		final := meanLoss(m, w, ds)
		if !(final < init*0.9) {
			t.Fatalf("ps-%s: loss %g -> %g after 6 epochs, no convergence", mode, init, final)
		}
		if st := e.Server().StatsSnapshot(); st.Versions[0] == 0 {
			t.Fatalf("ps-%s: shard 0 never updated", mode)
		}
	}
}

// TestEngineAsyncChaosReplayBitwise: under the sequential chaos scheduler
// the async tier replays bitwise for a fixed seed — claims, faults and
// apply order are all deterministic — and a different chaos seed changes
// the trajectory.
func TestEngineAsyncChaosReplayBitwise(t *testing.T) {
	ds := psDataset(t, 200)
	run := func(seed int64) []float64 {
		e, m := newTestEngine(t, ModeAsync, ds, 0.3)
		c := chaos.New(chaos.Plan{
			Name: "test", Stragglers: 1, StragglerFactor: 10,
			DropFrac: 0.05, DupFrac: 0.05, PartitionFrac: 0.1,
		}, seed)
		c.Sequential = true
		e.SetChaos(c)
		w, _ := runEpochs(e, m, 3)
		return w
	}
	a, b := run(7), run(7)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("weights diverge at %d: %x vs %x (replay not bitwise)", j, math.Float64bits(a[j]), math.Float64bits(b[j]))
		}
	}
	other := run(8)
	same := true
	for j := range a {
		if a[j] != other[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different chaos seeds produced identical weights")
	}
}

// countRec captures counters and phases for assertions.
type countRec struct {
	counts map[obs.Counter]int64
	phases map[obs.Phase]float64
	epochs int
	sec    float64
}

func newCountRec() *countRec {
	return &countRec{counts: map[obs.Counter]int64{}, phases: map[obs.Phase]float64{}}
}
func (r *countRec) Phase(p obs.Phase, s float64) { r.phases[p] += s }
func (r *countRec) Add(c obs.Counter, d int64)   { r.counts[c] += d }
func (r *countRec) Observe(obs.Metric, float64)  {}
func (r *countRec) EndEpoch(s float64)           { r.epochs++; r.sec += s }

// TestEngineSyncPartitionShortfall: a partition during the sync barrier
// loses whole worker contributions; the server's received-fraction rule
// absorbs them and they surface as chaos shortfall + partition counters.
func TestEngineSyncPartitionShortfall(t *testing.T) {
	ds := psDataset(t, 200)
	e, m := newTestEngine(t, ModeSync, ds, 0.5)
	c := chaos.New(chaos.Plan{Name: "part", PartitionFrac: 0.5}, 3)
	e.SetChaos(c)
	rec := newCountRec()
	e.SetRecorder(rec)
	w := m.InitParams(1)
	init := meanLoss(m, w, ds)
	for i := 0; i < 4; i++ {
		e.RunEpoch(w)
	}
	if rec.counts[obs.CounterChaosPartitioned] == 0 {
		t.Fatal("no partitioned rounds counted under PartitionFrac=0.5")
	}
	if rec.counts[obs.CounterChaosShortfall] == 0 {
		t.Fatal("partitioned sync rounds produced no shortfall")
	}
	if final := meanLoss(m, w, ds); !(final < init) {
		t.Fatalf("loss %g -> %g: sync tier did not survive the partition", init, final)
	}
}

// TestEngineAsyncStalenessSurfaced: apply-on-arrival with interleaved
// workers must produce nonzero staleness counters through obs — the
// paper's async statistical cost made visible. The sequential scheduler
// (no fault plan) guarantees the interleaving regardless of host cores;
// on a single-core host the free-running goroutine path can serialise.
func TestEngineAsyncStalenessSurfaced(t *testing.T) {
	ds := psDataset(t, 200)
	e, m := newTestEngine(t, ModeAsync, ds, 0.3)
	c := chaos.New(chaos.Plan{}, 1)
	c.Sequential = true
	e.SetChaos(c)
	rec := newCountRec()
	e.SetRecorder(rec)
	w := m.InitParams(1)
	for i := 0; i < 4; i++ {
		e.RunEpoch(w)
	}
	if rec.counts[obs.CounterPSPushes] == 0 || rec.counts[obs.CounterPSPulls] == 0 {
		t.Fatalf("ps counters empty: %+v", rec.counts)
	}
	// 4 workers racing 4 shards: some pushes must land on a version newer
	// than their basis.
	if rec.counts[obs.CounterPSStalenessSum] == 0 {
		t.Fatal("async tier reported zero total staleness across 4 epochs")
	}
}

// TestEngineStormContrast is the paper's point at cluster scale: under the
// storm plan (1 straggler at 10x + drops) the barriered tier's epoch
// stretches by an order of magnitude while apply-on-arrival barely moves.
func TestEngineStormContrast(t *testing.T) {
	ds := psDataset(t, 400)
	storm, err := chaos.Lookup("storm")
	if err != nil {
		t.Fatal(err)
	}
	stretch := func(mode Mode) float64 {
		healthy, m := newTestEngine(t, mode, ds, 0.3)
		healthy.Batch = 4 // enough claims that dynamic balancing can show
		_, hs := runEpochs(healthy, m, 2)
		faulted, _ := newTestEngine(t, mode, ds, 0.3)
		faulted.Batch = 4
		c := chaos.New(storm, 5)
		c.Sequential = true
		faulted.SetChaos(c)
		_, fs := runEpochs(faulted, m, 2)
		return fs / hs
	}
	sync, async := stretch(ModeSync), stretch(ModeAsync)
	if sync < 2*async {
		t.Fatalf("storm stretch: sync %.2fx vs async %.2fx — barrier not paying for the straggler", sync, async)
	}
	if async > 4 {
		t.Fatalf("async stretch %.2fx under storm, want near 1 (dynamic claiming)", async)
	}
}

// TestEngineOverHTTP runs a full training epoch with the racing async workers
// sharing one HTTPTransport (as the benchmark dials it) against the real HTTP
// server.
func TestEngineOverHTTP(t *testing.T) {
	ds := psDataset(t, 120)
	m := model.NewLR(ds.D())
	e := NewEngine(ModeAsync, m, ds, 0.3, 2, 2)
	e.SetShuffleSeed(1)
	hs := NewHTTPServer(e.Server())
	ts := httptest.NewServer(hs.Handler())
	defer ts.Close()
	tr := &HTTPTransport{BaseURL: ts.URL, Client: ts.Client()}
	e.Dial = func(int) Transport { return tr }
	w := m.InitParams(1)
	init := meanLoss(m, w, ds)
	for i := 0; i < 3; i++ {
		e.RunEpoch(w)
	}
	if final := meanLoss(m, w, ds); !(final < init*0.95) {
		t.Fatalf("loss %g -> %g over HTTP transport, no progress", init, final)
	}
	if st := e.Server().StatsSnapshot(); st.Versions[0] == 0 {
		t.Fatal("no pushes landed on the server over HTTP")
	}
}

// TestEngineSyncHTTPMatchesChan: the transport carries the arithmetic without
// touching it — two barriered epochs over the HTTP frames leave the weights
// bit-equal to the same epochs over the channel transport, with the same
// traffic counted at the server.
func TestEngineSyncHTTPMatchesChan(t *testing.T) {
	ds := psDataset(t, 200)
	run := func(overHTTP bool) ([]float64, *countRec) {
		e, m := newTestEngine(t, ModeSync, ds, 0.5)
		rec := newCountRec()
		e.SetRecorder(rec)
		if overHTTP {
			ts := httptest.NewServer(NewHTTPServer(e.Server()).Handler())
			defer ts.Close()
			tr := &HTTPTransport{BaseURL: ts.URL, Client: ts.Client()}
			e.Dial = func(int) Transport { return tr }
		}
		w, _ := runEpochs(e, m, 2)
		return w, rec
	}
	wChan, recChan := run(false)
	wHTTP, recHTTP := run(true)
	if !sameBits(wChan, wHTTP) {
		t.Fatalf("weights differ across transports:\nchan %v\nhttp %v", wChan, wHTTP)
	}
	for _, c := range []obs.Counter{obs.CounterPSPulls, obs.CounterPSPushes} {
		if recChan.counts[c] == 0 || recChan.counts[c] != recHTTP.counts[c] {
			t.Fatalf("%v: %d over chan, %d over HTTP", c, recChan.counts[c], recHTTP.counts[c])
		}
	}
}

// TestEnginePhaseSumConsistency: gradient+update+barrier must sum exactly
// to the returned modeled seconds (the sgdtrace consistency contract).
func TestEnginePhaseSumConsistency(t *testing.T) {
	ds := psDataset(t, 200)
	for _, mode := range []Mode{ModeSync, ModeAsync} {
		e, m := newTestEngine(t, mode, ds, 0.3)
		rec := newCountRec()
		e.SetRecorder(rec)
		w := m.InitParams(1)
		sec := e.RunEpoch(w)
		sum := rec.phases[obs.PhaseGradient] + rec.phases[obs.PhaseUpdate] + rec.phases[obs.PhaseBarrier]
		if math.Abs(sum-sec) > 1e-12*math.Max(1, sec) {
			t.Fatalf("ps-%s: phases sum to %g, epoch reported %g", mode, sum, sec)
		}
	}
}
