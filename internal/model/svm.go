package model

import (
	"repro/internal/data"
)

// SVM is a linear support vector machine with the (unregularised) hinge loss
//
//	f(w; x, y) = max(0, 1 - y * w.x),  y in {-1, +1}.
//
// The subgradient is -y*x when the margin is violated and 0 otherwise, so —
// like LR — its support equals the support of x.
type SVM struct {
	Dim int
}

// NewSVM returns an SVM task over dim features.
func NewSVM(dim int) *SVM { return &SVM{Dim: dim} }

// Name implements Model.
func (m *SVM) Name() string { return "svm" }

// NumParams implements Model.
func (m *SVM) NumParams() int { return m.Dim }

// InitParams implements Model: zero initialisation (initial loss 1). The
// vector is 64-byte aligned (model stripe k = cache line k, see AlignedVec).
func (m *SVM) InitParams(seed int64) []float64 { return AlignedVec(m.Dim) }

// NewScratch implements Model; SVM needs no scratch.
func (m *SVM) NewScratch() Scratch { return nil }

// ExampleLoss implements Model.
func (m *SVM) ExampleLoss(w []float64, ds *data.Dataset, i int, _ Scratch) float64 {
	margin := ds.Y[i] * ds.X.RowDot(i, w)
	if margin >= 1 {
		return 0
	}
	return 1 - margin
}

// AccumGrad implements Model.
func (m *SVM) AccumGrad(w []float64, ds *data.Dataset, i int, scale float64, g []float64, _ Scratch) {
	y := ds.Y[i]
	if y*ds.X.RowDot(i, w) >= 1 {
		return
	}
	ds.X.RowAxpy(i, -y*scale, g)
}

// SGDStep implements Model: w <- w + step*y*x when the margin is violated.
func (m *SVM) SGDStep(w []float64, ds *data.Dataset, i int, step float64, upd Updater, _ Scratch) {
	y := ds.Y[i]
	if y*ds.X.RowDot(i, w) >= 1 {
		return
	}
	cols, vals := ds.X.Row(i)
	upd.AddScaled(w, 0, cols, vals, step*y)
}

// GradSupport implements Model.
func (m *SVM) GradSupport(ds *data.Dataset, i int) int { return ds.X.RowNNZ(i) }

// Score implements Scorer: the margin w.x (the SVM decision value; no
// probability calibration is implied).
func (m *SVM) Score(w []float64, ds *data.Dataset, i int, _ Scratch) float64 {
	return ds.X.RowDot(i, w)
}

// QuantScore implements QuantScorer: the margin against the int8 weights.
func (m *SVM) QuantScore(qw *QuantizedWeights, ds *data.Dataset, i int) float64 {
	return qw.RowDot(ds.X, i)
}

// BatchGrad implements BatchModel: margins = X*w, hinge coefficients as an
// element-wise kernel, g = X^T*coef / n.
func (m *SVM) BatchGrad(b Ops, w []float64, ds *data.Dataset, rows []int, g []float64) float64 {
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
	b.Map(coef, margins, ys, func(margin, y float64) float64 {
		if y*margin >= 1 {
			return 0
		}
		return -y
	})
	var loss float64
	for i := 0; i < n; i++ {
		if v := 1 - ys[i]*margins[i]; v > 0 {
			loss += v
		}
	}
	b.SpMVT(x, coef, g)
	b.Scal(1/float64(n), g)
	return loss / float64(n)
}

var (
	_ Model       = (*SVM)(nil)
	_ BatchModel  = (*SVM)(nil)
	_ Scorer      = (*SVM)(nil)
	_ QuantScorer = (*SVM)(nil)
)
