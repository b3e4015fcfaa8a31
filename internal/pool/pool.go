// Package pool provides a persistent worker pool for the study's
// data-parallel loops.
//
// The epoch path issues thousands of small kernels per sweep (Map, Axpy,
// Scal on mini-batch-sized vectors, chunked SpMV rows). Spawning goroutines
// per call — the seed's linalg.parallelFor — pays goroutine creation, a
// closure allocation per chunk, and WaitGroup park/wake on every operation;
// HOGWILD! (Niu et al., 2011) and Ma et al. (2018) both observe that
// lock-free parallel SGD only pays off when the surrounding loop is
// allocation- and synchronisation-free. The pool keeps a fixed set of
// long-lived workers parked on a channel; dispatching a parallel region is
// then a handful of channel sends with zero steady-state allocations.
//
// The pool only changes how host work is scheduled. Modeled device times
// come from the cost models (internal/numa, internal/gpusim) and are
// computed from operation shapes, never from host wall-clock, so using the
// pool cannot affect any reproduced number.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is a data-parallel loop body: Run processes the half-open index
// range [lo, hi). A Task passed to Pool.Run is invoked concurrently on
// disjoint ranges, so it may write per-index state without synchronisation
// but must not share mutable per-range state across ranges.
//
// Hot call sites keep a long-lived Task value with argument fields they
// refill before each Run; that is what makes the steady state of the kernel
// path allocation-free (a closure would be re-allocated per call).
type Task interface {
	Run(lo, hi int)
}

// ShardTask is a Task that also wants to know which pool worker executed
// each chunk — the hook request-level span tracing uses to emit per-worker
// shard spans. Worker is the executing worker's index in [0, Size), or -1
// when the chunk ran on the calling goroutine (the caller's own first chunk,
// help-stolen chunks, and the inline fallback when the queue is full).
// RunShard is called instead of Run; the contract on ranges is identical.
type ShardTask interface {
	Task
	RunShard(worker, lo, hi int)
}

// runChunk executes one chunk, routing through RunShard when the task wants
// worker identity. The interface assertion is allocation-free, so Tasks that
// ignore workers pay a type check and nothing else.
func runChunk(t Task, worker, lo, hi int) {
	if st, ok := t.(ShardTask); ok {
		st.RunShard(worker, lo, hi)
		return
	}
	t.Run(lo, hi)
}

// call is one dispatched chunk of a Run invocation.
type call struct {
	t      Task
	lo, hi int
	d      *doneGroup
}

// execOn runs the chunk as the given worker (-1 = a calling goroutine).
func (c call) execOn(worker int) {
	runChunk(c.t, worker, c.lo, c.hi)
	if c.d.remaining.Add(-1) == 0 {
		c.d.ch <- struct{}{}
	}
}

// doneGroup tracks the outstanding dispatched chunks of one Run invocation.
// Instances are recycled through Pool.dones, so a Run in steady state
// allocates nothing.
type doneGroup struct {
	remaining atomic.Int64
	ch        chan struct{} // buffered 1: exactly one completion signal
}

// Pool is a fixed set of long-lived worker goroutines executing Tasks. It
// is safe for concurrent use: the CPU backend and the asynchronous engines
// share one pool, and Run may be called from inside a running Task (nested
// parallelism cannot deadlock; see Run).
type Pool struct {
	size  int
	tasks chan call
	dones chan *doneGroup
}

// New starts a pool with the given number of persistent workers. Sizes
// below 1 are raised to 1; a size-1 pool still accepts Run but executes
// everything inline on the caller.
func New(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{
		size:  size,
		tasks: make(chan call, 4*size),
		dones: make(chan *doneGroup, 16),
	}
	for i := 0; i < size; i++ {
		go p.worker(i)
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the shared process-wide pool, created at first use and
// sized to GOMAXPROCS. The CPU backend and the engines use it unless a test
// injects its own pool.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(runtime.GOMAXPROCS(0)) })
	return defaultPool
}

// Size returns the number of persistent workers.
func (p *Pool) Size() int { return p.size }

// Close stops the workers once the queue drains. Only tests that create
// private pools need it; the Default pool lives for the process.
func (p *Pool) Close() { close(p.tasks) }

func (p *Pool) worker(id int) {
	for c := range p.tasks {
		c.execOn(id)
	}
}

// Run splits [0, n) into up to workers contiguous chunks and executes
// t.Run over all of them, returning when every chunk is done. The effective
// parallelism is capped at the pool size (extra requested workers add no
// real concurrency on the host; modeled thread counts are priced separately
// against the paper machine). The calling goroutine executes the first
// chunk itself and, while waiting, helps drain other queued chunks — so
// concurrent and nested Run calls always make progress and cannot deadlock.
// Steady-state Run performs zero heap allocations.
func (p *Pool) Run(workers, n int, t Task) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers > p.size {
		workers = p.size
	}
	if workers <= 1 {
		runChunk(t, -1, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	nchunks := (n + chunk - 1) / chunk
	if nchunks <= 1 {
		runChunk(t, -1, 0, n)
		return
	}
	d := p.getDone()
	d.remaining.Store(int64(nchunks - 1))
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		c := call{t: t, lo: lo, hi: hi, d: d}
		select {
		case p.tasks <- c:
		default:
			// Queue full: run the chunk inline instead of blocking, so a
			// Run issued from inside a worker can never wedge the pool.
			c.execOn(-1)
		}
	}
	runChunk(t, -1, 0, chunk)
	for {
		select {
		case c := <-p.tasks:
			// Help drain the queue while waiting for our own chunks: the
			// stolen chunk may belong to another (possibly nested) Run,
			// which keeps every concurrent invocation progressing.
			c.execOn(-1)
		case <-d.ch:
			p.putDone(d)
			return
		}
	}
}

// RunGrain is Run with a minimum per-worker grain: the worker count is
// reduced so every chunk covers at least grain indices. Dispatching a chunk
// costs on the order of a microsecond (channel handoff plus a scheduler
// wake); an element-wise kernel at ~1ns/element therefore cannot profit
// from a chunk much smaller than a few thousand elements, and a mini-batch-
// sized vector runs inline. This — not raw dispatch speed — is what removes
// the per-op parallelism tax from an epoch of small kernels.
func (p *Pool) RunGrain(workers, n, grain int, t Task) {
	if grain > 1 {
		if byGrain := n / grain; workers > byGrain {
			workers = byGrain
		}
	}
	p.Run(workers, n, t)
}

// funcTask adapts a closure to Task. Func values are pointer-shaped, so the
// interface conversion itself does not allocate (the closure might).
type funcTask func(lo, hi int)

func (f funcTask) Run(lo, hi int) { f(lo, hi) }

// RunFunc is Run for closure call sites that are not allocation-critical
// (large dense kernels, host-side evaluation passes). Hot kernels should
// keep a pre-bound Task instead: the closure passed here is typically one
// heap allocation per call.
func (p *Pool) RunFunc(workers, n int, fn func(lo, hi int)) {
	p.Run(workers, n, funcTask(fn))
}

func (p *Pool) getDone() *doneGroup {
	select {
	case d := <-p.dones:
		return d
	default:
		return &doneGroup{ch: make(chan struct{}, 1)}
	}
}

func (p *Pool) putDone(d *doneGroup) {
	select {
	case p.dones <- d:
	default:
	}
}
