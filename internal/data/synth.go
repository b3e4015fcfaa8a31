package data

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/sparse"
)

// Generate builds a deterministic synthetic dataset matching the spec's
// Table I shape statistics. Labels come from a planted ground-truth model:
// y_i = sign(x_i . w* + noise), so LR and SVM have a real signal to recover
// and the loss curves behave like those of the natural datasets.
//
// Dense specs (covtype) produce rows with every feature present, values in
// [0, 1]. Sparse specs draw the per-row nnz count from a heavy-tailed
// distribution matched to (min, avg, max), draw column indices from a Zipf
// law (text-like feature popularity, which also concentrates Hogwild update
// conflicts on hot features as in real data), and L2-normalise each row as
// the LIBSVM versions of real-sim/rcv1/news are.
func Generate(spec Spec) *Dataset {
	rng := rand.New(rand.NewSource(spec.Seed))
	truth := plantedModel(rng, spec.D)
	if spec.Dense() {
		return generateDense(spec, rng, truth)
	}
	return generateSparse(spec, rng, truth)
}

// plantedModel draws the hidden ground-truth weight vector. Weights decay
// with the feature index so that the popular (low-index, Zipf-favoured)
// features carry most of the signal — as in natural text corpora.
func plantedModel(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	for j := range w {
		scale := 1.0 / math.Sqrt(1+float64(j)/64)
		w[j] = rng.NormFloat64() * scale
	}
	return w
}

// generateDense builds a covtype-like complete dataset: the real covtype has
// 10 quantitative columns plus two one-hot groups (4 wilderness areas, 40
// soil types); its LIBSVM distribution stores all 54 entries per example
// (Table I: nnz 54, density 100%). Reproducing that structure matters — a
// matrix of 54 independent uniform columns would be far worse conditioned
// than the real data and batch gradient descent would crawl.
func generateDense(spec Spec, rng *rand.Rand, truth []float64) *Dataset {
	continuous := spec.D
	var groups []int
	if spec.D == 54 {
		continuous, groups = 10, []int{4, 40}
	}
	m := &sparse.CSR{NumRows: spec.N, NumCols: spec.D}
	m.RowPtr = make([]int64, spec.N+1)
	m.ColIdx = make([]int32, spec.N*spec.D)
	m.Values = make([]float64, spec.N*spec.D)
	y := make([]float64, spec.N)
	for i := 0; i < spec.N; i++ {
		lo := i * spec.D
		m.RowPtr[i+1] = int64(lo + spec.D)
		row := m.Values[lo : lo+spec.D]
		for j := 0; j < spec.D; j++ {
			m.ColIdx[lo+j] = int32(j)
		}
		var margin float64
		for j := 0; j < continuous; j++ {
			v := rng.Float64() // scaled to [0,1], covtype-style
			row[j] = v
			margin += (v - 0.5) * truth[j] // centred signal
		}
		off := continuous
		for _, g := range groups {
			hot := rng.Intn(g)
			row[off+hot] = 1 // structural zeros elsewhere keep density 100%
			margin += truth[off+hot]
			off += g
		}
		y[i] = signLabel(margin + spec.NoiseRate*rng.NormFloat64())
	}
	return &Dataset{Name: spec.Name, X: m, Y: y}
}

func generateSparse(spec Spec, rng *rand.Rand, truth []float64) *Dataset {
	// Per-row nnz model: nnz = min + floor((max-min) * u^k) with
	// E[u^k] = 1/(k+1) chosen so the mean hits AvgNNZ. This yields the
	// heavy right tail (few very long documents) seen in Table I.
	k := 1.0
	if spec.AvgNNZ > float64(spec.MinNNZ) {
		k = float64(spec.MaxNNZ-spec.MinNNZ)/(spec.AvgNNZ-float64(spec.MinNNZ)) - 1
	}
	if k < 0 {
		k = 0
	}
	s := spec.ZipfS
	if s <= 1 {
		s = 1.1
	}
	zipf := rand.NewZipf(rng, s, 8, uint64(spec.D-1))

	rowPtr := make([]int64, spec.N+1)
	// The realised nnz lands within a few percent of N*AvgNNZ; a 1/16
	// margin keeps the arrays from regrowing.
	capNNZ := int(float64(spec.N) * spec.AvgNNZ * 17 / 16)
	colIdx := make([]int32, 0, capNNZ)
	values := make([]float64, 0, capNNZ)
	// seen[c] == i+1 marks column c as drawn for row i, so moving to the
	// next row clears nothing.
	seen := make([]int32, spec.D)
	cols := make([]int32, 0, spec.MaxNNZ)
	df := make([]int32, spec.D) // per-feature document frequency

	// Pass 1: structure and raw term frequencies.
	for i := 0; i < spec.N; i++ {
		span := float64(spec.MaxNNZ - spec.MinNNZ)
		nnz := spec.MinNNZ + int(span*math.Pow(rng.Float64(), k))
		if nnz > spec.MaxNNZ {
			nnz = spec.MaxNNZ
		}
		mark := int32(i + 1)
		cols = cols[:0]
		for len(cols) < nnz {
			c := int32(zipf.Uint64())
			if seen[c] == mark {
				// Collision on a hot feature: fall back to a
				// uniform draw so long rows terminate.
				c = int32(rng.Intn(spec.D))
				if seen[c] == mark {
					continue
				}
			}
			seen[c] = mark
			cols = append(cols, c)
			df[c]++
		}
		slices.Sort(cols)
		colIdx = append(colIdx, cols...)
		for range cols {
			values = append(values, math.Abs(rng.NormFloat64())) // raw tf
		}
		rowPtr[i+1] = int64(len(values))
	}

	// Pass 2: tf-idf weighting (the LIBSVM real-sim/rcv1/news releases
	// are tf-idf + unit-normalised). Down-weighting the Zipf-hot features
	// is what keeps real text problems well conditioned, so the synthetic
	// equivalents must do it too.
	idf := make([]float64, spec.D)
	for c := range idf {
		idf[c] = math.Log(float64(spec.N+1) / float64(df[c]+1))
	}
	y := make([]float64, spec.N)
	for i := 0; i < spec.N; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		var norm float64
		for j := lo; j < hi; j++ {
			values[j] *= idf[colIdx[j]]
			norm += values[j] * values[j]
		}
		var margin float64
		if norm > 0 {
			inv := 1 / math.Sqrt(norm)
			for j := lo; j < hi; j++ {
				values[j] *= inv
				margin += values[j] * truth[colIdx[j]]
			}
		}
		y[i] = signLabel(margin + spec.NoiseRate*rng.NormFloat64())
	}
	m := &sparse.CSR{
		NumRows: spec.N, NumCols: spec.D,
		RowPtr: rowPtr, ColIdx: colIdx, Values: values,
	}
	return &Dataset{Name: spec.Name, X: m, Y: y}
}

func signLabel(v float64) float64 {
	if v >= 0 {
		return 1
	}
	return -1
}
