package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// TestDeadlineFlushBoundsLatency trickles lone requests through a batcher
// with plenty of batch headroom. Each request's wall latency must land in
// [MaxDelay, MaxDelay + slack]: the deadline timer cannot fire early, and no
// request may wait (much) longer than the configured bound — the adaptive
// half of the batching contract.
func TestDeadlineFlushBoundsLatency(t *testing.T) {
	const maxDelay = 20 * time.Millisecond
	// Generous tail for CI schedulers; the assertion is about the bound's
	// order of magnitude, not scheduler jitter.
	const slack = 2 * time.Second
	c := NewCore(model.NewLR(2), lrStore([]float64{1, 1}), Config{
		MaxBatch: 64, MaxDelay: maxDelay,
	})
	defer c.Close()

	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err := c.Predict([]int32{0}, []float64{1})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.BatchSize != 1 {
			t.Fatalf("trickle request %d rode a batch of %d, want 1", i, res.BatchSize)
		}
		if elapsed < maxDelay-time.Millisecond {
			t.Fatalf("request %d returned after %v, before the %v deadline could fire", i, elapsed, maxDelay)
		}
		if elapsed > maxDelay+slack {
			t.Fatalf("request %d waited %v, exceeding MaxDelay %v + slack %v", i, elapsed, maxDelay, slack)
		}
		// A reply arrives only after its batch is counted.
		if got := c.Stats().Snapshot().Batches; got < int64(i+1) {
			t.Fatalf("after reply %d Stats counts %d batches, want >= %d", i+1, got, i+1)
		}
	}
	rep := c.Stats().Snapshot()
	if rep.Batches != 5 || rep.Requests != 5 || rep.AvgBatch != 1 {
		t.Fatalf("stats = %+v, want 5 batches of 1", rep)
	}
}

// TestFullBatchFlushesBeforeDeadline proves the size trigger: with an hour
// deadline, MaxBatch concurrent requests must still return promptly, all in
// one micro-batch.
func TestFullBatchFlushesBeforeDeadline(t *testing.T) {
	const maxBatch = 4
	rec := obs.NewAggregator()
	run := rec.Run("serve", "test")
	c := NewCore(model.NewLR(2), lrStore([]float64{1, 1}), Config{
		MaxBatch: maxBatch, MaxDelay: time.Hour, Rec: run,
	})
	defer c.Close()

	var wg sync.WaitGroup
	results := make([]Result, maxBatch)
	errs := make([]error, maxBatch)
	for i := 0; i < maxBatch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Predict([]int32{0}, []float64{1})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("full batch did not flush before the deadline")
	}
	for i := 0; i < maxBatch; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].BatchSize != maxBatch {
			t.Fatalf("request %d rode a batch of %d, want %d", i, results[i].BatchSize, maxBatch)
		}
		if results[i].Version != results[0].Version {
			t.Fatal("requests of one batch scored against different snapshot versions")
		}
	}
	rep := c.Stats().Snapshot()
	if rep.Batches != 1 || rep.Requests != int64(maxBatch) || rep.MaxBatch != maxBatch {
		t.Fatalf("stats = %+v, want one batch of %d", rep, maxBatch)
	}
}

// TestUnbatchedConfigNeverGroups checks the MaxBatch=1 baseline the sgdload
// A/B report compares against: every request pays its own dispatch.
func TestUnbatchedConfigNeverGroups(t *testing.T) {
	c := NewCore(model.NewLR(2), lrStore([]float64{1, 1}), Config{MaxBatch: 1, QueueDepth: 64})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Predict([]int32{1}, []float64{2})
			if err != nil {
				t.Error(err)
				return
			}
			if res.BatchSize != 1 {
				t.Errorf("batch size %d with batching disabled", res.BatchSize)
			}
		}()
	}
	wg.Wait()
	if rep := c.Stats().Snapshot(); rep.Batches != 32 {
		t.Fatalf("batches = %d, want 32", rep.Batches)
	}
}
