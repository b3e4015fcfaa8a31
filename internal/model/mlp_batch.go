package model

import (
	"math"
	"slices"

	"repro/internal/data"
	"repro/internal/tensor"
)

// MLPChunk is the default number of examples the batch formulation feeds
// through the GEMM pipeline at a time. With the paper's architectures
// (hidden widths 10 and 5) every matrix-product result then stays below
// ViennaCL's 5000-element parallelisation threshold (at most ~10 x 300 for
// the weight gradients and chunk x 10 for the forward products), which is
// exactly the mechanism behind the paper's "only ~2x parallel-CPU speedup
// for sync MLP" finding (Section IV-B and Fig. 6). MLP.Chunk overrides it
// (the GPU pipeline batches more per kernel to amortise launches).
const MLPChunk = 256

// chunkSize returns the configured pipeline chunk.
func (m *MLP) chunkSize() int {
	if m.Chunk > 0 {
		return m.Chunk
	}
	return MLPChunk
}

// BatchGrad implements BatchModel: a chunked dense GEMM forward/backward
// pass accumulating the mean gradient over the given rows (nil = all rows).
// The transformed MLP datasets are processed in dense format, as the paper
// does.
func (m *MLP) BatchGrad(b Ops, w []float64, ds *data.Dataset, rows []int, g []float64) float64 {
	n := ds.N()
	rowAt := func(i int) int { return i }
	if rows != nil {
		n = len(rows)
		rowAt = func(i int) int { return rows[i] }
	}
	clear(g)
	L := m.Layers()
	in0 := m.Widths[0]
	chunk := m.chunkSize()

	// Chunk buffers, cached on the backend scratch when one is available so
	// the steady-state epoch re-uses them across batches.
	a0, acts, deltas, classes := batchScratchOf(b).mlpChunkBufs(m, chunk)

	var totalLoss float64
	for start := 0; start < n; start += chunk {
		cn := min(chunk, n-start)
		// Materialise the dense chunk (host-side data staging; the
		// paper excludes transfer time from kernel timing).
		a0.Zero()
		for i := 0; i < cn; i++ {
			r := rowAt(start + i)
			cols, vals := ds.X.Row(r)
			row := a0.Row(i)
			for k, c := range cols {
				row[c] = vals[k]
			}
			classes[i] = classOf(ds.Y[r])
		}
		a0c := &tensor.Matrix{Rows: cn, Cols: in0, Data: a0.Data[:cn*in0]}

		// Forward: Z_{l+1} = A_l * W_l^T (+ bias), sigmoid on hidden,
		// softmax on the output layer.
		prev := a0c
		for l := 0; l < L; l++ {
			zl := chunkView(acts[l+1], cn)
			b.GemmNT(1, prev, m.Weight(w, l), 0, zl)
			bias := m.Bias(w, l)
			if l == L-1 {
				b.RowsMap(zl, func(_ int, row []float64) {
					tensor.Axpy(1, bias, row)
					tensor.Softmax(row, row)
				})
			} else {
				b.RowsMap(zl, func(_ int, row []float64) {
					for k := range row {
						row[k] = tensor.Sigmoid(row[k] + bias[k])
					}
				})
			}
			prev = zl
		}

		// Loss and output delta: delta_L = probs - onehot.
		probs := chunkView(acts[L], cn)
		for i := 0; i < cn; i++ {
			p := probs.At(i, classes[i])
			if p < 1e-300 {
				p = 1e-300
			}
			totalLoss += -math.Log(p)
		}
		dL := chunkView(deltas[L], cn)
		b.RowsMap(dL, func(i int, row []float64) {
			copy(row, probs.Row(i))
			row[classes[i]] -= 1
		})

		// Backward: delta_l = (delta_{l+1} * W_l) .* a_l(1-a_l);
		// gradW_l += delta_{l+1}^T * A_l; gradb_l += column sums.
		for l := L - 1; l >= 0; l-- {
			dNext := chunkView(deltas[l+1], cn)
			var al *tensor.Matrix
			if l == 0 {
				al = a0c
			} else {
				al = chunkView(acts[l], cn)
			}
			gw := m.Weight(g, l)
			b.GemmTN(1, dNext, al, 1, gw)
			gb := m.Bias(g, l)
			for i := 0; i < cn; i++ {
				tensor.Axpy(1, dNext.Row(i), gb)
			}
			if l > 0 {
				d := chunkView(deltas[l], cn)
				b.Gemm(1, dNext, m.Weight(w, l), 0, d)
				b.RowsMap(d, func(i int, row []float64) {
					arow := al.Row(i)
					for k := range row {
						row[k] *= arow[k] * (1 - arow[k])
					}
				})
			}
		}
	}
	b.Scal(1/float64(n), g)
	return totalLoss / float64(n)
}

// chunkView returns the first cn rows of m as a matrix view.
func chunkView(m *tensor.Matrix, cn int) *tensor.Matrix {
	return &tensor.Matrix{Rows: cn, Cols: m.Cols, Data: m.Data[:cn*m.Cols]}
}

// mlpBatchScratch caches the chunk-pipeline matrices of MLP.BatchGrad. The
// buffers depend only on (chunk, widths); a shape change rebuilds them.
type mlpBatchScratch struct {
	chunk   int
	widths  []int
	a0      *tensor.Matrix
	acts    []*tensor.Matrix
	deltas  []*tensor.Matrix
	classes []int
}

// mlpChunkBufs returns the chunk buffers for m, reusing the cached set when
// the shape matches (nil scratch allocates fresh buffers, the seed path).
// Every buffer is fully overwritten per chunk, so reuse cannot leak state
// between batches.
func (s *BatchScratch) mlpChunkBufs(m *MLP, chunk int) (*tensor.Matrix, []*tensor.Matrix, []*tensor.Matrix, []int) {
	if s == nil {
		return newMLPChunkBufs(m, chunk)
	}
	ms := &s.mlp
	if ms.a0 == nil || ms.chunk != chunk || !slices.Equal(ms.widths, m.Widths) {
		ms.a0, ms.acts, ms.deltas, ms.classes = newMLPChunkBufs(m, chunk)
		ms.chunk = chunk
		ms.widths = append(ms.widths[:0], m.Widths...)
	}
	return ms.a0, ms.acts, ms.deltas, ms.classes
}

func newMLPChunkBufs(m *MLP, chunk int) (*tensor.Matrix, []*tensor.Matrix, []*tensor.Matrix, []int) {
	L := m.Layers()
	a0 := tensor.NewMatrix(chunk, m.Widths[0])
	acts := make([]*tensor.Matrix, L+1) // acts[l]: chunk x Widths[l]
	deltas := make([]*tensor.Matrix, L+1)
	for l := 1; l <= L; l++ {
		acts[l] = tensor.NewMatrix(chunk, m.Widths[l])
		deltas[l] = tensor.NewMatrix(chunk, m.Widths[l])
	}
	classes := make([]int, chunk)
	return a0, acts, deltas, classes
}
