// Package model defines the three training tasks of the study — logistic
// regression (LR), support vector machine (SVM), and fully-connected
// multi-layer perceptron (MLP) — behind one Model interface with two data
// paths:
//
//   - a per-example path (ExampleLoss / SGDStep / AccumGrad) used by the
//     incremental/asynchronous engines (Hogwild and the simulated GPU
//     kernels), which touches only the gradient support; and
//   - a batch path (BatchModel.BatchGrad) expressed in terms of the Ops
//     linear-algebra interface, used by the synchronous engines so that the
//     same formulation runs on the parallel-CPU and simulated-GPU backends —
//     the paper's ViennaCL "identical implementation, different device"
//     property.
//
// Models are stateless; all parameters live in a flat []float64 so the
// asynchronous engines can share one vector between threads and apply
// unsynchronised updates to it, one Updater call per sparse row or dense
// span of an example's gradient.
package model

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/pool"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Updater abstracts how an example's update lands in the model: RawUpdater
// stores with a benign race (classic Hogwild); the engines' capturing and
// write-set-tracking updaters record the update instead of, or beside,
// landing it. SGDStep hands over one slice per call — a sparse row or a dense
// span — so the per-component loop runs inside the updater, not behind an
// interface call per nonzero.
type Updater interface {
	// AddScaled performs w[off+cols[k]] += a*vals[k] for every k.
	AddScaled(w []float64, off int, cols []int32, vals []float64, a float64)
	// AddDense performs w[off+k] += a*g[k] for every k.
	AddDense(w []float64, off int, g []float64, a float64)
}

// RawUpdater applies plain stores: the Hogwild discipline — no
// synchronisation whatsoever; concurrent writers may overwrite each other.
type RawUpdater struct{}

// AddScaled implements Updater with unsynchronised read-modify-writes.
func (RawUpdater) AddScaled(w []float64, off int, cols []int32, vals []float64, a float64) {
	w = w[off:]
	for k, c := range cols {
		w[c] += a * vals[k]
	}
}

// AddDense implements Updater with unsynchronised read-modify-writes.
func (RawUpdater) AddDense(w []float64, off int, g []float64, a float64) {
	w = w[off : off+len(g)]
	for k, v := range g {
		w[k] += a * v
	}
}

// Scratch holds per-worker temporary buffers (activations, deltas). Each
// concurrent worker owns one; models define their own concrete type.
type Scratch interface{}

// Model is a trainable task over a data.Dataset.
type Model interface {
	// Name identifies the task ("lr", "svm", "mlp").
	Name() string
	// NumParams is the length of the flat parameter vector.
	NumParams() int
	// InitParams returns a deterministic initial parameter vector. All
	// configurations of an experiment start from the same vector, per
	// the paper's methodology.
	InitParams(seed int64) []float64
	// NewScratch allocates the per-worker scratch buffers.
	NewScratch() Scratch
	// ExampleLoss returns f(w; x_i, y_i).
	ExampleLoss(w []float64, ds *data.Dataset, i int, scr Scratch) float64
	// AccumGrad adds scale * grad f(w; x_i, y_i) into the dense g.
	AccumGrad(w []float64, ds *data.Dataset, i int, scale float64, g []float64, scr Scratch)
	// SGDStep performs the incremental update w <- w - step*grad f(w; x_i, y_i)
	// in place, writing only the gradient support through upd. This is the
	// Hogwild hot path (Algorithm 3 of the paper).
	SGDStep(w []float64, ds *data.Dataset, i int, step float64, upd Updater, scr Scratch)
	// GradSupport returns how many model components the gradient of
	// example i touches; the conflict and coherence cost models use it.
	GradSupport(ds *data.Dataset, i int) int
}

// Ops is the linear-algebra contract the batch formulations need. The
// internal/linalg backends (parallel CPU and simulated GPU) satisfy it; cost
// accounting happens inside the backend so the batch code stays
// device-independent, mirroring the paper's ViennaCL usage.
type Ops interface {
	// Gemv computes y = alpha*A*x + beta*y for dense A.
	Gemv(alpha float64, a *tensor.Matrix, x []float64, beta float64, y []float64)
	// GemvT computes y = alpha*A^T*x + beta*y for dense A.
	GemvT(alpha float64, a *tensor.Matrix, x []float64, beta float64, y []float64)
	// Gemm computes C = alpha*A*B + beta*C.
	Gemm(alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix)
	// GemmNT computes C = alpha*A*B^T + beta*C.
	GemmNT(alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix)
	// GemmTN computes C = alpha*A^T*B + beta*C.
	GemmTN(alpha float64, a, b *tensor.Matrix, beta float64, c *tensor.Matrix)
	// SpMV computes y = A*x for CSR A.
	SpMV(a *sparse.CSR, x, y []float64)
	// SpMVT computes y = A^T*x for CSR A (overwrites y).
	SpMVT(a *sparse.CSR, x, y []float64)
	// Axpy computes y += alpha*x.
	Axpy(alpha float64, x, y []float64)
	// Scal computes x *= alpha.
	Scal(alpha float64, x []float64)
	// Map applies a scalar function element-wise: dst[i] = f(src[i], aux[i]).
	// aux may be nil. It models ViennaCL's element-wise kernels.
	Map(dst, src, aux []float64, f func(s, a float64) float64)
	// RowsMap applies f to every row of m in place (bias addition,
	// activations, per-row softmax). Backends may run rows concurrently,
	// so f must not share mutable state across calls.
	RowsMap(m *tensor.Matrix, f func(i int, row []float64))
}

// Scorer extends Model with inference: a real-valued decision score for one
// example, positive for class +1. For LR and SVM the score is the margin
// w.x (so sigmoid(score) is the LR class probability); for the MLP it is the
// log-odds log(p₊/p₋) of the softmax output, which gives every model the
// same sign-decides-label, sigmoid-calibrates-probability contract the
// serving layer (internal/serve) relies on. Score must be safe to call from
// concurrent goroutines sharing w, each with its own Scratch — the same
// discipline as ExampleLoss.
type Scorer interface {
	Model
	// Score returns the decision score of example i under w.
	Score(w []float64, ds *data.Dataset, i int, scr Scratch) float64
}

// BatchModel extends Model with the synchronous batch-gradient formulation.
type BatchModel interface {
	Model
	// BatchGrad computes g = mean gradient over the rows set (nil = all
	// rows) using backend ops, and returns the mean loss at w over the
	// same rows. g has NumParams elements and is overwritten.
	BatchGrad(b Ops, w []float64, ds *data.Dataset, rows []int, g []float64) float64
}

// meanLossGrain keeps MeanLoss chunks large enough that dispatching them to
// the worker pool is profitable (an example loss is a sparse dot, tens of
// nanoseconds).
const meanLossGrain = 1024

// MeanLoss computes the mean per-example loss over the whole dataset with
// the scalar path. The convergence driver uses it; its time is excluded from
// iteration timing, following the paper's methodology, so this host-side
// evaluation may use every core: per-example losses are computed in parallel
// into a buffer, then summed sequentially in index order — bitwise identical
// to the serial sweep.
func MeanLoss(m Model, w []float64, ds *data.Dataset) float64 {
	n := ds.N()
	if n == 0 {
		return 0
	}
	losses := make([]float64, n)
	p := pool.Default()
	p.RunGrain(p.Size(), n, meanLossGrain, meanLossTask{m: m, w: w, ds: ds, losses: losses})
	var s float64
	for _, l := range losses {
		s += l
	}
	return s / float64(n)
}

// meanLossTask evaluates per-example losses over [lo, hi); each invocation
// builds its own model scratch, so concurrent chunks never share state.
type meanLossTask struct {
	m      Model
	w      []float64
	ds     *data.Dataset
	losses []float64
}

func (t meanLossTask) Run(lo, hi int) {
	scr := t.m.NewScratch()
	for i := lo; i < hi; i++ {
		t.losses[i] = t.m.ExampleLoss(t.w, t.ds, i, scr)
	}
}

// initRNG builds the shared deterministic initialiser stream.
func initRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
