package model

import (
	"repro/internal/data"
	"repro/internal/tensor"
)

// LR is binary logistic regression with the log-loss
//
//	f(w; x, y) = log(1 + exp(-y * w.x)),  y in {-1, +1},
//
// without regularisation (the paper omits it to measure pure computation).
// The gradient is -y * sigmoid(-y w.x) * x, so its support equals the
// support of x — the property Hogwild exploits on sparse data.
type LR struct {
	Dim int // number of features
}

// NewLR returns an LR task over dim features.
func NewLR(dim int) *LR { return &LR{Dim: dim} }

// Name implements Model.
func (m *LR) Name() string { return "lr" }

// NumParams implements Model.
func (m *LR) NumParams() int { return m.Dim }

// InitParams implements Model: zero initialisation (the conventional LR
// start, giving the same initial loss ln 2 everywhere). The vector is
// 64-byte aligned so model stripe k is cache line k (see AlignedVec);
// alignment never changes the values.
func (m *LR) InitParams(seed int64) []float64 { return AlignedVec(m.Dim) }

// NewScratch implements Model; LR needs no scratch.
func (m *LR) NewScratch() Scratch { return nil }

// ExampleLoss implements Model.
func (m *LR) ExampleLoss(w []float64, ds *data.Dataset, i int, _ Scratch) float64 {
	margin := ds.X.RowDot(i, w)
	return tensor.Log1pExp(-ds.Y[i] * margin)
}

// AccumGrad implements Model.
func (m *LR) AccumGrad(w []float64, ds *data.Dataset, i int, scale float64, g []float64, _ Scratch) {
	y := ds.Y[i]
	coef := -y * tensor.Sigmoid(-y*ds.X.RowDot(i, w)) * scale
	ds.X.RowAxpy(i, coef, g)
}

// SGDStep implements Model: w <- w + step*y*sigmoid(-y w.x)*x over the
// support of x only.
func (m *LR) SGDStep(w []float64, ds *data.Dataset, i int, step float64, upd Updater, _ Scratch) {
	y := ds.Y[i]
	coef := step * y * tensor.Sigmoid(-y*ds.X.RowDot(i, w))
	if coef == 0 {
		return
	}
	cols, vals := ds.X.Row(i)
	upd.AddScaled(w, 0, cols, vals, coef)
}

// GradSupport implements Model.
func (m *LR) GradSupport(ds *data.Dataset, i int) int { return ds.X.RowNNZ(i) }

// Score implements Scorer: the margin w.x, whose sigmoid is the class-+1
// probability.
func (m *LR) Score(w []float64, ds *data.Dataset, i int, _ Scratch) float64 {
	return ds.X.RowDot(i, w)
}

// QuantScore implements QuantScorer: the margin against the int8 weights.
func (m *LR) QuantScore(qw *QuantizedWeights, ds *data.Dataset, i int) float64 {
	return qw.RowDot(ds.X, i)
}

// BatchGrad implements BatchModel with the ViennaCL-style primitive
// sequence: margins = X*w (SpMV), per-example coefficients (element-wise
// map), g = X^T*coef / n (SpMV-transpose + scal).
func (m *LR) BatchGrad(b Ops, w []float64, ds *data.Dataset, rows []int, g []float64) float64 {
	scr := batchScratchOf(b)
	x := ds.X
	if rows != nil {
		x = scr.selectRows(ds.X, rows)
	}
	n := x.NumRows
	margins := scr.marginBuf(n)
	b.SpMV(x, w, margins)
	ys := scr.selectLabelsInto(ds, rows)
	coef := scr.coefBuf(n)
	// Per-example loss coefficients as a device element-wise kernel so the
	// backend accounts its cost; the loss reduction itself is host-side and
	// excluded from iteration timing, per the paper's methodology.
	b.Map(coef, margins, ys, func(margin, y float64) float64 {
		return -y * tensor.Sigmoid(-y*margin)
	})
	var loss float64
	for i := 0; i < n; i++ {
		loss += tensor.Log1pExp(-ys[i] * margins[i])
	}
	b.SpMVT(x, coef, g)
	b.Scal(1/float64(n), g)
	return loss / float64(n)
}

var (
	_ Model       = (*LR)(nil)
	_ BatchModel  = (*LR)(nil)
	_ Scorer      = (*LR)(nil)
	_ QuantScorer = (*LR)(nil)
)
