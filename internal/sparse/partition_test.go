package sparse

import (
	"math/rand"
	"testing"
)

// heavyTailCSR builds a matrix whose row widths follow a discrete power law
// — the news20-like shape where even row-count chunks leave workers idle.
func heavyTailCSR(t testing.TB, rows, cols int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		// Mostly narrow rows; a heavy tail of very wide ones.
		width := 1 + rng.Intn(4)
		if rng.Float64() < 0.02 {
			width = cols / 4
		}
		for k, j := 0, rng.Intn(cols); k < width && j < cols; k, j = k+1, j+1+rng.Intn(3) {
			b.Add(i, j, rng.NormFloat64())
		}
	}
	m := b.Build()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkPartition asserts the partition property the kernels rely on:
// disjoint coverage of [0, rows) in order, at most parts ranges, and the
// additive skew bound nnz(part) <= ceil(nnz/parts) + maxRowNNZ.
func checkPartition(t *testing.T, m *CSR, parts int, ranges []Range) {
	t.Helper()
	if len(ranges) == 0 && m.NumRows == 0 {
		return
	}
	if len(ranges) > parts {
		t.Fatalf("%d ranges for parts=%d", len(ranges), parts)
	}
	next := 0
	for _, r := range ranges {
		if r.Lo != next || r.Hi <= r.Lo {
			t.Fatalf("range %+v breaks coverage at row %d", r, next)
		}
		next = r.Hi
	}
	if next != m.NumRows {
		t.Fatalf("partition covers [0, %d), want [0, %d)", next, m.NumRows)
	}
	nnz := int64(m.NNZ())
	eff := int64(parts) // quantiles are spaced by the effective part count
	if parts > m.NumRows {
		eff = int64(m.NumRows)
	}
	bound := (nnz+eff-1)/eff + int64(m.MaxRowNNZ())
	for _, r := range ranges {
		if got := r.NNZ(m); got > bound {
			t.Fatalf("range %+v carries %d nnz, bound %d (nnz=%d parts=%d maxRow=%d)",
				r, got, bound, nnz, parts, m.MaxRowNNZ())
		}
	}
}

func TestPartitionNNZProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := heavyTailCSR(t, 200+int(seed)*37, 120, seed)
		for _, parts := range []int{1, 2, 3, 7, 8, 56, 1000} {
			checkPartition(t, m, parts, m.PartitionNNZ(parts))
		}
	}
}

func TestPartitionNNZDegenerate(t *testing.T) {
	empty := &CSR{NumRows: 0, NumCols: 5, RowPtr: []int64{0}}
	if got := empty.PartitionNNZ(4); len(got) != 0 {
		t.Fatalf("empty matrix partition = %v", got)
	}
	// All-zero rows: still covers with non-empty ranges.
	b := NewBuilder(6, 3)
	zeros := b.Build()
	checkPartition(t, zeros, 4, zeros.PartitionNNZ(4))

	// One row holding everything.
	b2 := NewBuilder(5, 10)
	for j := 0; j < 10; j++ {
		b2.Add(2, j, 1)
	}
	m2 := b2.Build()
	checkPartition(t, m2, 3, m2.PartitionNNZ(3))
}

func TestPartitionNNZIntoReusesBuffer(t *testing.T) {
	m := heavyTailCSR(t, 300, 100, 3)
	buf := make([]Range, 0, 64)
	first := m.PartitionNNZInto(8, buf)
	second := m.PartitionNNZInto(8, first[:0])
	if &first[0] != &second[0] {
		t.Fatal("PartitionNNZInto reallocated despite sufficient capacity")
	}
	checkPartition(t, m, 8, second)
}

func TestPartitionNNZBalancesHeavyTail(t *testing.T) {
	// The balanced split must beat even row-count chunking on critical-path
	// nnz for a heavy-tailed matrix (the load-balance claim itself).
	m := heavyTailCSR(t, 2000, 400, 11)
	parts := 8
	balanced := m.PartitionNNZ(parts)
	var maxBalanced int64
	for _, r := range balanced {
		if n := r.NNZ(m); n > maxBalanced {
			maxBalanced = n
		}
	}
	chunk := (m.NumRows + parts - 1) / parts
	var maxEven int64
	for lo := 0; lo < m.NumRows; lo += chunk {
		hi := lo + chunk
		if hi > m.NumRows {
			hi = m.NumRows
		}
		if n := (Range{lo, hi}).NNZ(m); n > maxEven {
			maxEven = n
		}
	}
	if maxBalanced >= maxEven {
		t.Fatalf("balanced critical path %d not better than even chunking %d", maxBalanced, maxEven)
	}
	// ...and stay within 15% of the ideal equal share, the skew bound the
	// parallel kernels' scaling rests on.
	if ideal := float64(m.NNZ()) / float64(parts); float64(maxBalanced) > 1.15*ideal {
		t.Fatalf("balanced critical path %d is %.3fx the ideal share %.0f, want <= 1.15x",
			maxBalanced, float64(maxBalanced)/ideal, ideal)
	}
}

func TestPartitionRowsNNZProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := heavyTailCSR(t, 150+int(seed)*29, 90, seed+100)
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Perm(m.NumRows)
		for _, parts := range []int{1, 2, 5, 8, 56} {
			bounds := m.PartitionRowsNNZ(rows, parts, nil)
			if bounds[0] != 0 || bounds[len(bounds)-1] != len(rows) {
				t.Fatalf("bounds %v do not span [0, %d]", bounds, len(rows))
			}
			if len(bounds)-1 > parts {
				t.Fatalf("%d segments for parts=%d", len(bounds)-1, parts)
			}
			var total int64
			for _, r := range rows {
				total += int64(m.RowNNZ(r))
			}
			bound := (total+int64(parts)-1)/int64(parts) + int64(m.MaxRowNNZ())
			for k := 0; k+1 < len(bounds); k++ {
				if bounds[k+1] <= bounds[k] {
					t.Fatalf("empty segment at %d: %v", k, bounds)
				}
				var seg int64
				for _, r := range rows[bounds[k]:bounds[k+1]] {
					seg += int64(m.RowNNZ(r))
				}
				if seg > bound {
					t.Fatalf("segment %d carries %d nnz, bound %d", k, seg, bound)
				}
			}
		}
	}
}

func TestPartitionRowsNNZDegenerate(t *testing.T) {
	m := heavyTailCSR(t, 20, 15, 42)
	if got := m.PartitionRowsNNZ(nil, 4, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("nil rows bounds = %v", got)
	}
	one := m.PartitionRowsNNZ([]int{3}, 4, nil)
	if len(one) != 2 || one[0] != 0 || one[1] != 1 {
		t.Fatalf("single-row bounds = %v", one)
	}
}
