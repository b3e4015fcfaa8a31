package linalg

import (
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// Int8Kernel is the quantised scoring kernel of the serving tier: a sparse
// matrix-vector product against int8 weights with per-stripe float scales
// (model.QuantizedWeights), dispatched on the worker pool with the same
// nnz-balanced row partitioning as the float64 backend. Unlike CPUBackend
// it is not a priced model.Ops device — it measures nothing and models
// nothing; it exists to score batches as fast as the host allows.
//
// It also carries SpMVFloat, an identically-structured (same dispatch, same
// two-way-unrolled inner loop) float64 kernel, so the system benchmark's
// quantised-vs-float comparison (linalg.float_score_ms / int8_score_ms)
// isolates the int8 memory-locality effect from any difference in loop
// shape or parallelism.
//
// A kernel is a single-caller object (the serve dispatcher owns one); it
// keeps pre-bound task values and a reusable partition buffer, so the
// steady-state path is allocation-free.
type Int8Kernel struct {
	workers int
	pool    *pool.Pool

	qtask int8SpMVTask
	ftask f64SpMVTask
	parts []sparse.Range
}

// NewInt8Kernel returns a kernel fanning out over at most workers pool
// workers (values < 1 mean the pool size).
func NewInt8Kernel(workers int) *Int8Kernel {
	p := pool.Default()
	if workers < 1 {
		workers = p.Size()
	}
	return &Int8Kernel{workers: workers, pool: p}
}

// SetPool redirects dispatch to a private pool (nil restores the default).
func (k *Int8Kernel) SetPool(p *pool.Pool) {
	if p == nil {
		p = pool.Default()
	}
	k.pool = p
}

// partsFor computes the nnz-balanced row partition for a kernel over a,
// reusing the kernel's buffer.
func (k *Int8Kernel) partsFor(a *sparse.CSR) []sparse.Range {
	p := k.workers
	if p > a.NumRows {
		p = a.NumRows
	}
	k.parts = a.PartitionNNZInto(p, k.parts[:0])
	return k.parts
}

// SpMV computes y[i] = row_i(a) · dequant(qw) for every row, in parallel
// over nnz-balanced parts. len(y) must be a.NumRows; qw must cover
// a.NumCols components.
func (k *Int8Kernel) SpMV(a *sparse.CSR, qw *model.QuantizedWeights, y []float64) {
	if k.workers <= 1 || a.NumRows <= 1 {
		for i := 0; i < a.NumRows; i++ {
			y[i] = qw.RowDot(a, i)
		}
		return
	}
	parts := k.partsFor(a)
	k.qtask = int8SpMVTask{a: a, qw: qw, y: y, parts: parts}
	k.pool.Run(len(parts), len(parts), &k.qtask)
}

// SpMVFloat computes y[i] = row_i(a) · w with the same dispatch and loop
// shape as SpMV — the fair float64 comparator for the quantisation bench.
func (k *Int8Kernel) SpMVFloat(a *sparse.CSR, w, y []float64) {
	if k.workers <= 1 || a.NumRows <= 1 {
		for i := 0; i < a.NumRows; i++ {
			cols, vals := a.Row(i)
			y[i] = DotUnrolled(cols, vals, w)
		}
		return
	}
	parts := k.partsFor(a)
	k.ftask = f64SpMVTask{a: a, w: w, y: y, parts: parts}
	k.pool.Run(len(parts), len(parts), &k.ftask)
}

// int8SpMVTask scores the rows of parts [lo, hi) against the quantised
// weights.
type int8SpMVTask struct {
	a     *sparse.CSR
	qw    *model.QuantizedWeights
	y     []float64
	parts []sparse.Range
}

func (t *int8SpMVTask) Run(lo, hi int) {
	for _, r := range t.parts[lo:hi] {
		for i := r.Lo; i < r.Hi; i++ {
			t.y[i] = t.qw.RowDot(t.a, i)
		}
	}
}

// f64SpMVTask scores the rows of parts [lo, hi) against float64 weights
// with the unrolled dot.
type f64SpMVTask struct {
	a     *sparse.CSR
	w, y  []float64
	parts []sparse.Range
}

func (t *f64SpMVTask) Run(lo, hi int) {
	for _, r := range t.parts[lo:hi] {
		for i := r.Lo; i < r.Hi; i++ {
			cols, vals := t.a.Row(i)
			t.y[i] = DotUnrolled(cols, vals, t.w)
		}
	}
}

// DotUnrolled is the two-way-unrolled sparse·dense dot with independent
// accumulators — the float64 twin of model.QuantizedWeights.RowDot. It is
// NOT numerically identical to sparse.CSR.RowDot (different summation
// order), which is why the training path does not use it; serving and
// benchmarks, which tolerate reassociation, do.
func DotUnrolled(cols []int32, vals []float64, w []float64) float64 {
	var s0, s1 float64
	k := 0
	for ; k+2 <= len(cols); k += 2 {
		s0 += vals[k] * w[cols[k]]
		s1 += vals[k+1] * w[cols[k+1]]
	}
	if k < len(cols) {
		s0 += vals[k] * w[cols[k]]
	}
	return s0 + s1
}
