package model

import (
	"math"

	"repro/internal/data"
	"repro/internal/sparse"
)

// This file holds the repo's low-precision path, QuantizedWeights: an int8 +
// per-stripe-scale *inference* representation of a trained float64 vector,
// scored by the serving tier. The win is memory locality — the int8 vector is
// 8x smaller than the float64 one, so a model that spills the L2 cache in
// float64 stays resident in int8 (see DESIGN §14).

// QuantStripe is the number of int8 weights sharing one quantisation scale:
// 64 int8 values occupy exactly one 64-byte cache line, so a stripe's
// weights and its scale lookup have line-granular locality, and the stripe
// index of component c is simply c>>6.
const QuantStripe = 64

// quantStripeShift is log2(QuantStripe); stripe of component c is c >> shift.
const quantStripeShift = 6

// QuantizedWeights is a symmetric int8 quantisation of a float64 weight
// vector with one scale per QuantStripe-component stripe:
//
//	w[i] ≈ float64(Q[i]) * Scales[i>>6],  Q[i] ∈ [-127, 127].
//
// Scales are stored as float64 (not float32) deliberately: the scoring
// kernel multiplies them into float64 accumulators, and a float32 scale
// would add a widening conversion per nonzero on the hot path for no
// locality benefit (the scales array is Dim/64 elements — 1/8 the size of
// the int8 vector itself).
//
// The representation is immutable after Quantize; it may be shared freely
// across goroutines.
type QuantizedWeights struct {
	// Dim is the logical vector length (len(Q)).
	Dim int
	// Q holds the int8 codes.
	Q []int8
	// Scales holds one dequantisation scale per stripe of QuantStripe
	// components; len(Scales) == ceil(Dim/QuantStripe).
	Scales []float64
}

// Quantize builds the int8 representation of w. Each stripe's scale is
// maxabs(stripe)/127 (symmetric, zero-point-free — linear-model scores are
// dot products, so a zero point would add a per-row correction term for
// nothing). Codes round half away from zero; an all-zero stripe gets scale 1
// so dequantisation stays exact.
func Quantize(w []float64) *QuantizedWeights {
	dim := len(w)
	numStripes := (dim + QuantStripe - 1) / QuantStripe
	qw := &QuantizedWeights{
		Dim:    dim,
		Q:      make([]int8, dim),
		Scales: make([]float64, numStripes),
	}
	for s := 0; s < numStripes; s++ {
		lo := s * QuantStripe
		hi := lo + QuantStripe
		if hi > dim {
			hi = dim
		}
		maxAbs := 0.0
		for i := lo; i < hi; i++ {
			if a := math.Abs(w[i]); a > maxAbs {
				maxAbs = a
			}
		}
		sc := maxAbs / 127
		if sc == 0 {
			sc = 1 // all-zero stripe: any scale works; 1 keeps At exact
		}
		qw.Scales[s] = sc
		inv := 1 / sc
		for i := lo; i < hi; i++ {
			v := w[i] * inv
			if v >= 0 {
				v += 0.5
			} else {
				v -= 0.5
			}
			qw.Q[i] = int8(int32(v))
		}
	}
	return qw
}

// At returns the dequantised weight i.
func (qw *QuantizedWeights) At(i int) float64 {
	return float64(qw.Q[i]) * qw.Scales[i>>quantStripeShift]
}

// Dequantize writes the dequantised vector into dst (len(dst) >= Dim).
func (qw *QuantizedWeights) Dequantize(dst []float64) {
	for i := 0; i < qw.Dim; i++ {
		dst[i] = qw.At(i)
	}
}

// MaxScale returns the largest stripe scale; scale/2 bounds the per-weight
// quantisation error of that stripe.
func (qw *QuantizedWeights) MaxScale() float64 {
	m := 0.0
	for _, s := range qw.Scales {
		if s > m {
			m = s
		}
	}
	return m
}

// RowDot computes row_i(x) · dequant(qw) — the quantised sparse dot that
// backs QuantScore and the int8 SpMV kernel in internal/linalg. The loop is
// two-way unrolled with independent accumulators; the system benchmark times
// it against an identically-unrolled float64 kernel (linalg.Int8Kernel) so
// the measured ratio is a memory-locality effect, not an unrolling artifact.
func (qw *QuantizedWeights) RowDot(x *sparse.CSR, i int) float64 {
	cols, vals := x.Row(i)
	q, scales := qw.Q, qw.Scales
	var s0, s1 float64
	k := 0
	for ; k+2 <= len(cols); k += 2 {
		c0, c1 := cols[k], cols[k+1]
		s0 += vals[k] * scales[c0>>quantStripeShift] * float64(q[c0])
		s1 += vals[k+1] * scales[c1>>quantStripeShift] * float64(q[c1])
	}
	if k < len(cols) {
		c := cols[k]
		s0 += vals[k] * scales[c>>quantStripeShift] * float64(q[c])
	}
	return s0 + s1
}

// RowErrorBound returns the analytic bound on |quantised − float score| for
// row i: Σ_k |x_k| · scale(col_k)/2, since each dequantised weight is within
// half a quantisation step of the original. internal/regress asserts the
// measured score delta never exceeds this machine-independent bound.
func (qw *QuantizedWeights) RowErrorBound(x *sparse.CSR, i int) float64 {
	cols, vals := x.Row(i)
	var b float64
	for k, c := range cols {
		b += math.Abs(vals[k]) * qw.Scales[c>>quantStripeShift]
	}
	return b / 2
}

// QuantScorer is implemented by models whose decision score can be computed
// directly from the quantised representation. The linear models (LR, SVM)
// qualify — their score is the margin w·x, so quantised weights drop
// straight into the dot product. The MLP does not (its score is a nonlinear
// function of w), so the serving tier falls back to the float64 path for
// models that do not implement this interface.
type QuantScorer interface {
	Scorer
	// QuantScore returns the decision score of example i under the
	// quantised weights. It must be safe for concurrent use, like Score.
	QuantScore(qw *QuantizedWeights, ds *data.Dataset, i int) float64
}
