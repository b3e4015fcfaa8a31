package serve

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/race"
)

// TestHotSwapNoTornReads hammers the snapshot store with publishes while
// concurrent predicts score dense examples. Every published weight vector is
// uniform — all elements equal float64(version) — so a torn read (a batch
// observing elements from two versions) would produce a score that is not an
// exact integer multiple of the feature count. Run under -race this is the
// PR's zero-torn-reads acceptance check.
func TestHotSwapNoTornReads(t *testing.T) {
	const (
		dim       = 64
		readers   = 8
		publishes = 200
	)
	store := NewStore()
	// publish installs a uniform weight vector whose value equals its
	// version, the invariant the readers verify.
	publish := func(v int64) {
		w := make([]float64, dim)
		for i := range w {
			w[i] = float64(v)
		}
		if got := store.Publish(&Snapshot{Model: "lr", Dim: dim, Weights: w}); got != v {
			t.Fatalf("publish got version %d, want %d", got, v)
		}
	}
	publish(1)

	cols := make([]int32, dim)
	vals := make([]float64, dim)
	for i := range cols {
		cols[i], vals[i] = int32(i), 1
	}

	c := NewCore(model.NewLR(dim), store, Config{MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
	defer c.Close()

	var stopReaders atomic.Bool
	var torn atomic.Int64
	var checked atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVer := int64(0)
			for !stopReaders.Load() {
				res, err := c.Predict(cols, vals)
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				// Uniform weights v over a ones-vector of length dim score
				// exactly v*dim; anything else is a torn model read.
				v := res.Score / dim
				if v != math.Trunc(v) || int64(v) != res.Version {
					torn.Add(1)
					t.Errorf("torn read: score %v at version %d (implies weights %v)",
						res.Score, res.Version, v)
					return
				}
				if res.Version < lastVer {
					t.Errorf("version regressed: %d after %d", res.Version, lastVer)
					return
				}
				lastVer = res.Version
				checked.Add(1)
			}
		}()
	}
	for v := int64(2); v <= publishes; v++ {
		publish(v)
		time.Sleep(50 * time.Microsecond)
	}
	stopReaders.Store(true)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads (of %d checked)", torn.Load(), checked.Load())
	}
	if checked.Load() == 0 {
		t.Fatal("no predictions completed; the hammer did not exercise the swap path")
	}
	t.Logf("checked %d predictions across %d publishes, 0 torn", checked.Load(), publishes)
}

// TestOnlineTrainerPublishesWhileServing runs a real Hogwild trainer that
// publishes every epoch while concurrent clients predict — the full online
// serving path under the race detector — and checks that served versions are
// monotone and that training publishes actually landed mid-traffic.
func TestOnlineTrainerPublishesWhileServing(t *testing.T) {
	if race.Enabled {
		// The 4-thread trainer's real threads race on one shared model —
		// racy by design, and not what this test checks. One P sends it
		// down its deterministic emulation, as on a one-core host; the
		// publishes still interleave with the concurrent predicts.
		old := runtime.GOMAXPROCS(1)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	assertNoLeak := leakCheck(t)
	spec, err := data.Lookup("covtype")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(400 / float64(spec.N))
	ds := data.Generate(spec)
	m := model.NewLR(ds.D())
	w := m.InitParams(1)
	eng := core.NewHogwild(m, ds, 0.05, 4)

	store := NewStore()
	tr := &Trainer{
		Engine: eng, Model: m, Data: ds, Store: store, W: w,
		PublishEvery: 1, EvalEvery: 8,
		Meta: Snapshot{Fingerprint: core.Fingerprint{
			Engine: eng.Name(), Model: m.Name(), Dataset: ds.Name,
			N: ds.N(), Threads: 4, Seed: 1,
		}},
	}
	c := NewCore(m, store, Config{MaxBatch: 16, MaxDelay: 200 * time.Microsecond})
	defer c.Close()

	// MaxEpochs is 0: the trainer publishes every epoch until stop closes,
	// which happens only after every reader finished its quota — so all
	// served traffic overlaps live publishes.
	stop := make(chan struct{})
	trainerDone := make(chan struct{})
	go func() { defer close(trainerDone); tr.Run(stop) }()

	// Wait for the pre-epoch publish so clients never see ErrNoModel.
	for store.Load() == nil {
		time.Sleep(100 * time.Microsecond)
	}

	cols := []int32{0, 1, 2}
	vals := []float64{1, -0.5, 2}
	var wg sync.WaitGroup
	var served atomic.Int64
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVer := int64(0)
			for i := 0; i < 200; i++ {
				res, err := c.Predict(cols, vals)
				if err != nil {
					t.Errorf("predict during training: %v", err)
					return
				}
				if res.Version < lastVer {
					t.Errorf("served version regressed: %d after %d", res.Version, lastVer)
					return
				}
				lastVer = res.Version
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-trainerDone

	if tr.Epochs < 1 {
		t.Fatal("trainer completed no epochs while serving")
	}
	// Initial publish + one per completed epoch.
	if got := store.Swaps(); got != int64(tr.Epochs)+1 {
		t.Fatalf("swaps = %d, want %d (initial + per-epoch)", got, tr.Epochs+1)
	}
	if served.Load() != 6*200 {
		t.Fatalf("served %d predictions, want %d", served.Load(), 6*200)
	}
	sn := store.Load()
	if sn.Epoch != tr.Epochs {
		t.Fatalf("final snapshot epoch %d, want %d", sn.Epoch, tr.Epochs)
	}
	if tr.Epochs >= 8 && sn.Loss == 0 {
		t.Fatal("loss never evaluated despite EvalEvery epochs elapsing")
	}
	t.Logf("served %d predictions across %d publishes (%d epochs), final loss %.4f",
		served.Load(), store.Swaps(), tr.Epochs, sn.Loss)
	// Trainer stopped and core closed: every goroutine this test started
	// (trainer, dispatcher, readers) must be gone.
	c.Close()
	assertNoLeak()
}
