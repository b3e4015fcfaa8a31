package serve

import (
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
)

// lrStore publishes an LR snapshot with the given weights.
func lrStore(w []float64) *Store {
	s := NewStore()
	s.Publish(&Snapshot{Model: "lr", Dim: len(w), Weights: w})
	return s
}

func TestPredictScoresAgainstSnapshot(t *testing.T) {
	w := []float64{1, -2, 0.5, 4}
	c := NewCore(model.NewLR(4), lrStore(w), Config{MaxBatch: 1})
	defer c.Close()

	res, err := c.Predict([]int32{0, 2}, []float64{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 3*w[0] + 2*w[2] // 4
	if math.Abs(res.Score-want) > 1e-12 {
		t.Fatalf("score = %v, want %v", res.Score, want)
	}
	if res.Label != 1 {
		t.Fatalf("label = %v, want +1", res.Label)
	}
	if res.Prob <= 0.5 || res.Prob >= 1 {
		t.Fatalf("prob = %v, want in (0.5, 1) for positive score", res.Prob)
	}
	if res.Version != 1 {
		t.Fatalf("version = %d, want 1", res.Version)
	}

	res, err = c.Predict([]int32{1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != -1 || res.Score != -2 {
		t.Fatalf("negative example: label=%v score=%v", res.Label, res.Score)
	}
}

func TestPredictErrors(t *testing.T) {
	c := NewCore(model.NewLR(4), NewStore(), Config{})
	defer c.Close()
	if _, err := c.Predict([]int32{0}, []float64{1}); err != ErrNoModel {
		t.Fatalf("empty store: err = %v, want ErrNoModel", err)
	}

	c2 := NewCore(model.NewLR(4), lrStore(make([]float64, 4)), Config{})
	defer c2.Close()
	if _, err := c2.Predict([]int32{4}, []float64{1}); err != ErrBadFeatures {
		t.Fatalf("out-of-range col: err = %v, want ErrBadFeatures", err)
	}
	if _, err := c2.Predict([]int32{-1}, []float64{1}); err != ErrBadFeatures {
		t.Fatalf("negative col: err = %v, want ErrBadFeatures", err)
	}
	if _, err := c2.Predict([]int32{0, 1}, []float64{1}); err != ErrBadFeatures {
		t.Fatalf("length mismatch: err = %v, want ErrBadFeatures", err)
	}
}

// slowScorer blocks inside Score until released, so tests can hold the
// dispatcher mid-flush and observe admission behaviour deterministically.
type slowScorer struct {
	*model.LR
	entered chan struct{}
	release chan struct{}
}

func (s *slowScorer) Score(w []float64, ds *data.Dataset, i int, scr model.Scratch) float64 {
	s.entered <- struct{}{}
	<-s.release
	return s.LR.Score(w, ds, i, scr)
}

func TestAdmissionControlRejectsWhenQueueFull(t *testing.T) {
	sc := &slowScorer{
		LR:      model.NewLR(2),
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	c := NewCore(sc, lrStore([]float64{1, 1}), Config{
		MaxBatch: 1, QueueDepth: 1, Workers: 1, Pool: pool.New(1),
	})
	defer c.cfg.Pool.Close()
	var relOnce sync.Once
	release := func() { relOnce.Do(func() { close(sc.release) }) }
	defer release() // unblock the dispatcher even when the test fails early

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[0] = c.Predict([]int32{0}, []float64{1}) }()
	<-sc.entered // dispatcher is now stuck scoring request 0
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[1] = c.Predict([]int32{0}, []float64{1}) }()
	// Wait until request 1 occupies the single queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(c.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Predict([]int32{0}, []float64{1}); err != ErrOverloaded {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	if got := c.Stats().Snapshot().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
	c.Close()
}

func TestCloseFailsPendingAndFuturePredicts(t *testing.T) {
	assertNoLeak := leakCheck(t)
	c := NewCore(model.NewLR(2), lrStore([]float64{1, 1}), Config{})
	c.Close()
	c.Close() // double Close is safe
	if _, err := c.Predict([]int32{0}, []float64{1}); err != ErrClosed {
		t.Fatalf("after Close: err = %v, want ErrClosed", err)
	}
	assertNoLeak() // the dispatcher goroutine must be gone after Close
}

func TestChaosDropFailsRequests(t *testing.T) {
	plan := chaos.Plan{DropFrac: 1}
	c := NewCore(model.NewLR(2), lrStore([]float64{1, 1}), Config{
		MaxBatch: 1, Plan: plan, ChaosSeed: 7,
	})
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.Predict([]int32{0}, []float64{1}); err != ErrInjectedDrop {
			t.Fatalf("request %d: err = %v, want ErrInjectedDrop", i, err)
		}
	}
	if got := c.Stats().Snapshot().Dropped; got != 4 {
		t.Fatalf("dropped = %d, want 4", got)
	}
}

func TestSnapshotFileRoundtrip(t *testing.T) {
	sn := &Snapshot{
		Model:   "svm",
		Dim:     3,
		Weights: []float64{0.25, -1, 3},
		Loss:    0.125,
		Epoch:   7,
		Fingerprint: core.Fingerprint{
			Engine: "hogwild/cpu(8)", Model: "svm", Dataset: "covtype",
			N: 1000, Threads: 8, Seed: 42,
		},
	}
	NewStore().Publish(sn)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := SaveSnapshot(path, sn); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != sn.Model || got.Dim != sn.Dim || got.Epoch != sn.Epoch ||
		got.Version != sn.Version || got.Fingerprint != sn.Fingerprint {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, sn)
	}
	for i := range sn.Weights {
		if got.Weights[i] != sn.Weights[i] {
			t.Fatalf("weight %d: %v vs %v", i, got.Weights[i], sn.Weights[i])
		}
	}
	if _, err := LoadSnapshotFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loading a missing snapshot should fail")
	}
}

func TestStoreVersionsMonotonic(t *testing.T) {
	s := NewStore()
	if s.Load() != nil {
		t.Fatal("fresh store should be empty")
	}
	w := []float64{1, 2}
	v1 := s.PublishWeights(w, Snapshot{Model: "lr", Dim: 2})
	w[0] = 99 // publisher keeps training; the snapshot must hold the copy
	v2 := s.PublishWeights(w, Snapshot{Model: "lr", Dim: 2})
	if v1 != 1 || v2 != 2 || s.Swaps() != 2 {
		t.Fatalf("versions %d,%d swaps %d; want 1,2,2", v1, v2, s.Swaps())
	}
	if got := s.Load().Weights[0]; got != 99 {
		t.Fatalf("latest snapshot w[0] = %v, want 99", got)
	}
}

func TestStoreRefusesNonFiniteWeights(t *testing.T) {
	s := NewStore()
	if v := s.PublishWeights([]float64{1, math.NaN()}, Snapshot{Model: "lr", Dim: 2}); v != 0 || s.Load() != nil {
		t.Fatalf("NaN first publish returned version %d and installed %+v; want 0 and nothing", v, s.Load())
	}
	v1 := s.PublishWeights([]float64{1, 2}, Snapshot{Model: "lr", Dim: 2})
	good := s.Load()
	if v := s.PublishWeights([]float64{math.NaN(), 2}, Snapshot{Model: "lr", Dim: 2}); v != v1 {
		t.Fatalf("NaN publish returned version %d, want the installed %d", v, v1)
	}
	if v := s.Publish(&Snapshot{Model: "lr", Dim: 2, Weights: []float64{math.Inf(-1), 2}}); v != v1 {
		t.Fatalf("-Inf publish returned version %d, want the installed %d", v, v1)
	}
	if s.Load() != good || good.Version != v1 || good.Weights[1] != 2 {
		t.Fatalf("a refused publish replaced the installed snapshot: %+v", s.Load())
	}
	if s.Refused() != 3 || s.Swaps() != 1 {
		t.Fatalf("Refused() = %d, Swaps() = %d; want 3 and 1", s.Refused(), s.Swaps())
	}
	if v2 := s.PublishWeights([]float64{3, 4}, Snapshot{Model: "lr", Dim: 2}); v2 != v1+1 {
		t.Fatalf("the next finite publish got version %d, want %d", v2, v1+1)
	}
}

func TestHistQuantiles(t *testing.T) {
	h := obs.NewHist([]float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h.Record(0.5) // bucket <=1
	}
	for i := 0; i < 49; i++ {
		h.Record(3) // bucket <=4
	}
	h.Record(100) // overflow
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("p99 = %v, want 4", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("p100 = %v, want the recorded max 100", got)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if mean := h.Mean(); math.Abs(mean-(50*0.5+49*3+100)/100) > 1e-12 {
		t.Fatalf("mean = %v", mean)
	}
}
