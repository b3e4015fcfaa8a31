// Package tensor provides dense vector and matrix primitives used by every
// layer of the study: the linear-algebra backends (internal/linalg), the
// model gradients (internal/model), and the SGD engines (internal/core).
//
// Matrices are row-major float64. The package deliberately stays small and
// allocation-conscious: every mutating operation writes into a caller-owned
// destination so the hot SGD loops can reuse buffers.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector = []float64

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged row %d: len %d want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Zero clears m in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Dot returns the inner product of x and y. Panics if lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Scal scales x by a in place.
func Scal(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Copy copies src into dst. Panics if lengths differ.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Copy length mismatch %d vs %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// AddTo computes dst = x + y element-wise.
func AddTo(dst, x, y []float64) {
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// SubTo computes dst = x - y element-wise.
func SubTo(dst, x, y []float64) {
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// MulTo computes dst = x .* y element-wise (Hadamard product).
func MulTo(dst, x, y []float64) {
	for i := range dst {
		dst[i] = x[i] * y[i]
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Max returns the maximum element of x; -Inf for empty x.
func Max(x []float64) float64 {
	m := math.Inf(-1)
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the maximum element; -1 for empty x.
func ArgMax(x []float64) int {
	idx, m := -1, math.Inf(-1)
	for i, v := range x {
		if v > m {
			m, idx = v, i
		}
	}
	return idx
}

// Gemv computes y = alpha*A*x + beta*y for a row-major A (Rows x Cols),
// len(x) == Cols, len(y) == Rows.
func Gemv(alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("tensor: Gemv shape mismatch A=%dx%d x=%d y=%d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = alpha*s + beta*y[i]
	}
}

// GemvT computes y = alpha*A^T*x + beta*y, len(x) == Rows, len(y) == Cols.
func GemvT(alpha float64, a *Matrix, x []float64, beta float64, y []float64) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("tensor: GemvT shape mismatch A=%dx%d x=%d y=%d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	if beta != 1 {
		for j := range y {
			y[j] *= beta
		}
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		ax := alpha * x[i]
		if ax == 0 {
			continue
		}
		for j, v := range row {
			y[j] += ax * v
		}
	}
}

// Gemm computes C = alpha*A*B + beta*C with A (m x k), B (k x n), C (m x n).
func Gemm(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Gemm shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	GemmRows(alpha, a, b, beta, c, 0, a.Rows)
}

// GemmRows computes rows [lo, hi) of C = alpha*A*B + beta*C. It is the
// row-partitioned kernel the parallel CPU backend dispatches to worker
// goroutines; Gemm is GemmRows over the full row range.
func GemmRows(alpha float64, a, b *Matrix, beta float64, c *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := c.Row(i)
		if beta == 0 {
			for j := range crow {
				crow[j] = 0
			}
		} else if beta != 1 {
			for j := range crow {
				crow[j] *= beta
			}
		}
		arow := a.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			s := alpha * av
			for j, bv := range brow {
				crow[j] += s * bv
			}
		}
	}
}

// GemmNT computes C = alpha*A*B^T + beta*C with A (m x k), B (n x k),
// C (m x n).
func GemmNT(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: GemmNT shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	GemmNTRows(alpha, a, b, beta, c, 0, a.Rows)
}

// GemmNTRows computes rows [lo, hi) of C = alpha*A*B^T + beta*C.
func GemmNTRows(alpha float64, a, b *Matrix, beta float64, c *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			s := alpha * Dot(arow, b.Row(j))
			if beta == 0 {
				crow[j] = s
			} else {
				crow[j] = s + beta*crow[j]
			}
		}
	}
}

// GemmTN computes C = alpha*A^T*B + beta*C with A (k x m), B (k x n),
// C (m x n).
func GemmTN(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: GemmTN shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	GemmTNRows(alpha, a, b, beta, c, 0, a.Cols)
}

// GemmTNRows computes rows [lo, hi) of C = alpha*A^T*B + beta*C (a row of C
// corresponds to a column of A).
func GemmTNRows(alpha float64, a, b *Matrix, beta float64, c *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := c.Row(i)
		if beta == 0 {
			for j := range crow {
				crow[j] = 0
			}
		} else if beta != 1 {
			for j := range crow {
				crow[j] *= beta
			}
		}
		for k := 0; k < a.Rows; k++ {
			av := alpha * a.At(k, i)
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// Outer computes A += alpha * x * y^T for A (len(x) x len(y)).
func Outer(alpha float64, x, y []float64, a *Matrix) {
	if a.Rows != len(x) || a.Cols != len(y) {
		panic(fmt.Sprintf("tensor: Outer shape mismatch A=%dx%d x=%d y=%d",
			a.Rows, a.Cols, len(x), len(y)))
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := a.Row(i)
		s := alpha * xv
		for j, yv := range y {
			row[j] += s * yv
		}
	}
}

// Softmax writes softmax(x) into dst using the max-shift for numerical
// stability. dst and x may alias.
func Softmax(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: Softmax length mismatch")
	}
	m := Max(x)
	var z float64
	for i, v := range x {
		e := math.Exp(v - m)
		dst[i] = e
		z += e
	}
	inv := 1 / z
	for i := range dst {
		dst[i] *= inv
	}
}

// Sigmoid returns the logistic function 1/(1+exp(-v)) computed stably for
// large |v|.
func Sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}

// SigmoidTo applies Sigmoid element-wise: dst[i] = Sigmoid(x[i]).
func SigmoidTo(dst, x []float64) {
	for i, v := range x {
		dst[i] = Sigmoid(v)
	}
}

// Log1pExp returns log(1+exp(v)) computed stably (softplus).
func Log1pExp(v float64) float64 {
	if v > 0 {
		return v + math.Log1p(math.Exp(-v))
	}
	return math.Log1p(math.Exp(v))
}

// AllFinite reports whether every element of x is finite.
func AllFinite(x []float64) bool {
	for _, v := range x {
		// v-v is 0 for every finite v and NaN for NaN and ±Inf: one
		// subtract-and-compare per element, half the cost of IsNaN||IsInf.
		if v-v != 0 {
			return false
		}
	}
	return true
}
