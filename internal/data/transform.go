package data

import (
	"fmt"
	"slices"

	"repro/internal/sparse"
)

// GroupFeatures applies the paper's MLP preprocessing: the d original
// features are partitioned into `inputs` groups of consecutive features and
// each group is replaced by the average of its values (zeros included in the
// divisor). A group is stored iff at least one member feature is non-zero,
// so the transformed density rises exactly the way Table I's "MLP sparsity"
// column describes (e.g. real-sim 0.25% -> ~43%).
func GroupFeatures(d *Dataset, inputs int) (*Dataset, error) {
	if inputs <= 0 {
		return nil, fmt.Errorf("data: GroupFeatures inputs=%d", inputs)
	}
	src := d.X
	if inputs >= src.NumCols {
		// Nothing to group (covtype, w8a keep their native width).
		return d, nil
	}
	groupSize := (src.NumCols + inputs - 1) / inputs
	rowPtr := make([]int64, src.NumRows+1)
	var colIdx []int32
	var values []float64
	acc := make([]float64, inputs)
	touched := make([]int32, 0, inputs)
	for i := 0; i < src.NumRows; i++ {
		cols, vals := src.Row(i)
		touched = touched[:0]
		for k, c := range cols {
			g := int32(int(c) / groupSize)
			if acc[g] == 0 {
				touched = append(touched, g)
			}
			acc[g] += vals[k]
		}
		slices.Sort(touched)
		for _, g := range touched {
			colIdx = append(colIdx, g)
			values = append(values, acc[g]/float64(groupSize))
			acc[g] = 0
		}
		rowPtr[i+1] = int64(len(values))
	}
	out := &sparse.CSR{
		NumRows: src.NumRows, NumCols: inputs,
		RowPtr: rowPtr, ColIdx: colIdx, Values: values,
	}
	return &Dataset{Name: d.Name + "-mlp", X: out, Y: d.Y}, nil
}

// ForMLP returns the dataset transformed to the spec's MLP input width.
func ForMLP(d *Dataset, spec Spec) (*Dataset, error) {
	return GroupFeatures(d, spec.MLPInputs)
}
