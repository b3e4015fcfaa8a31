package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, tc := range []struct{ workers, n int }{
		{1, 1}, {2, 1}, {4, 3}, {4, 1000}, {8, 1000}, {3, 7}, {100, 10},
	} {
		seen := make([]int32, tc.n)
		p.RunFunc(tc.workers, tc.n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("workers=%d n=%d: index %d visited %d times", tc.workers, tc.n, i, v)
			}
		}
	}
}

func TestRunDegenerateCases(t *testing.T) {
	p := New(2)
	defer p.Close()
	p.RunFunc(4, 0, func(lo, hi int) { t.Error("called for n=0") })
	p.RunFunc(0, 3, func(lo, hi int) {})
	p.RunFunc(-1, 3, func(lo, hi int) {})
}

func TestConcurrentRunsFromManyGoroutines(t *testing.T) {
	p := New(4)
	defer p.Close()
	const goroutines = 8
	const n = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var total atomic.Int64
			for rep := 0; rep < 50; rep++ {
				total.Store(0)
				p.RunFunc(4, n, func(lo, hi int) {
					var s int64
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					total.Add(s)
				})
				if got := total.Load(); got != n*(n-1)/2 {
					t.Errorf("sum = %d, want %d", got, n*(n-1)/2)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNestedRunDoesNotDeadlock issues Runs from inside running tasks on a
// deliberately tiny pool: the non-blocking dispatch plus help-while-waiting
// must keep every level progressing.
func TestNestedRunDoesNotDeadlock(t *testing.T) {
	p := New(2)
	defer p.Close()
	var count atomic.Int64
	p.RunFunc(2, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.RunFunc(2, 8, func(lo2, hi2 int) {
				count.Add(int64(hi2 - lo2))
			})
		}
	})
	if got := count.Load(); got != 4*8 {
		t.Fatalf("nested runs covered %d indices, want %d", got, 4*8)
	}
}

func TestTaskChunksAreDisjoint(t *testing.T) {
	p := New(4)
	defer p.Close()
	// Unsynchronised writes must be safe because ranges are disjoint; the
	// race detector verifies the claim.
	out := make([]int, 1000)
	p.RunFunc(4, len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i * i
		}
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestDefaultPoolSharedAndSized(t *testing.T) {
	p1, p2 := Default(), Default()
	if p1 != p2 {
		t.Fatal("Default() returned distinct pools")
	}
	if p1.Size() < 1 {
		t.Fatalf("Default pool size %d", p1.Size())
	}
	sum := 0
	p1.RunFunc(2, 10, func(lo, hi int) {
		if lo == 0 {
			sum = hi - lo // workers clamp may run everything inline
		}
	})
	_ = sum
}

func TestSpawnMatchesRun(t *testing.T) {
	p := New(4)
	defer p.Close()
	a := make([]int32, 777)
	b := make([]int32, 777)
	Spawn(4, len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&a[i], 1)
		}
	})
	p.RunFunc(4, len(b), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&b[i], 1)
		}
	})
	for i := range a {
		if a[i] != 1 || b[i] != 1 {
			t.Fatalf("index %d: spawn %d pool %d", i, a[i], b[i])
		}
	}
}

// TestRunZeroAllocSteadyState asserts the tentpole property: dispatching a
// parallel region through a warm pool allocates nothing.
func TestRunZeroAllocSteadyState(t *testing.T) {
	p := New(2)
	defer p.Close()
	data := make([]float64, 4096)
	task := &scaleTask{data: data, alpha: 1.0000001}
	// Warm the doneGroup freelist.
	for i := 0; i < 8; i++ {
		p.Run(2, len(data), task)
	}
	avg := testing.AllocsPerRun(100, func() {
		p.Run(2, len(data), task)
	})
	if avg != 0 {
		t.Fatalf("Pool.Run allocates %v per call in steady state, want 0", avg)
	}
}

type scaleTask struct {
	data  []float64
	alpha float64
}

func (t *scaleTask) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		t.data[i] *= t.alpha
	}
}

func TestRunUsesAtMostPoolSizeWorkers(t *testing.T) {
	// With more requested workers than pool size, chunking must coarsen to
	// the pool size rather than queueing excess chunks.
	prev := runtime.GOMAXPROCS(0)
	_ = prev
	p := New(2)
	defer p.Close()
	var chunks atomic.Int64
	p.RunFunc(16, 1000, func(lo, hi int) { chunks.Add(1) })
	if got := chunks.Load(); got > 2 {
		t.Fatalf("dispatched %d chunks with pool size 2", got)
	}
}

// shardRecorder records which worker executed each index.
type shardRecorder struct {
	workers []int32 // per index: worker+2, so 0 = unvisited, 1 = caller (-1)
	runs    atomic.Int32
}

func (s *shardRecorder) Run(lo, hi int) { s.runs.Add(1) }
func (s *shardRecorder) RunShard(worker, lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.StoreInt32(&s.workers[i], int32(worker)+2)
	}
}

func TestShardTaskReceivesWorkerIdentity(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 4000
	rec := &shardRecorder{workers: make([]int32, n)}
	p.Run(4, n, rec)
	if rec.runs.Load() != 0 {
		t.Fatal("ShardTask must route through RunShard, not Run")
	}
	for i, w := range rec.workers {
		if w == 0 {
			t.Fatalf("index %d unvisited", i)
		}
		if worker := int(w) - 2; worker < -1 || worker >= p.Size() {
			t.Fatalf("index %d: worker %d out of range [-1, %d)", i, worker, p.Size())
		}
	}
	// The caller always runs chunk 0 itself.
	if got := int(rec.workers[0]) - 2; got != -1 {
		t.Fatalf("chunk 0 worker = %d, want -1 (caller)", got)
	}
}

// TestShardTaskSequentialAndInlineReportCaller checks that a Run executed
// sequentially inline on the caller (workers <= 1) reports every chunk as
// the caller's.
func TestShardTaskSequentialAndInlineReportCaller(t *testing.T) {
	p := New(4)
	defer p.Close()
	rec := &shardRecorder{workers: make([]int32, 100)}
	p.Run(1, 100, rec)
	for i, w := range rec.workers {
		if w == 0 {
			t.Fatalf("index %d unvisited", i)
		}
		if int(w)-2 != -1 {
			t.Fatalf("inline chunk reported worker %d", int(w)-2)
		}
	}
}
