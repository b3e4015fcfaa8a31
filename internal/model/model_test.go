package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// testDataset builds a small random sparse dataset for gradient checking.
func testDataset(t testing.TB, n, d int, density float64, seed int64) *data.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		nnz := 0
		for j := 0; j < d; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
				nnz++
			}
		}
		if nnz == 0 {
			b.Add(i, rng.Intn(d), 1)
		}
		if rng.Float64() < 0.5 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	ds := &data.Dataset{Name: "test", X: b.Build(), Y: y}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// finiteDiffGrad approximates the gradient of ExampleLoss at w numerically.
func finiteDiffGrad(m Model, w []float64, ds *data.Dataset, i int) []float64 {
	scr := m.NewScratch()
	g := make([]float64, len(w))
	const h = 1e-6
	for j := range w {
		orig := w[j]
		w[j] = orig + h
		fp := m.ExampleLoss(w, ds, i, scr)
		w[j] = orig - h
		fm := m.ExampleLoss(w, ds, i, scr)
		w[j] = orig
		g[j] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGradient compares AccumGrad against finite differences for a few
// examples, skipping examples where the loss is non-differentiable (SVM
// margin exactly 1 — measure-zero but possible).
func checkGradient(t *testing.T, m Model, ds *data.Dataset, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	scr := m.NewScratch()
	for trial := 0; trial < 5; trial++ {
		w := make([]float64, m.NumParams())
		for j := range w {
			w[j] = rng.NormFloat64() * 0.5
		}
		i := rng.Intn(ds.N())
		got := make([]float64, len(w))
		m.AccumGrad(w, ds, i, 1, got, scr)
		want := finiteDiffGrad(m, w, ds, i)
		for j := range w {
			diff := math.Abs(got[j] - want[j])
			scale := math.Max(1, math.Max(math.Abs(got[j]), math.Abs(want[j])))
			if diff/scale > 1e-4 {
				t.Fatalf("%s trial %d: grad[%d] = %v, finite diff %v",
					m.Name(), trial, j, got[j], want[j])
			}
		}
	}
}

func TestLRGradientMatchesFiniteDiff(t *testing.T) {
	ds := testDataset(t, 20, 8, 0.5, 1)
	checkGradient(t, NewLR(8), ds, 10)
}

func TestSVMGradientMatchesFiniteDiff(t *testing.T) {
	ds := testDataset(t, 20, 8, 0.5, 2)
	checkGradient(t, NewSVM(8), ds, 11)
}

func TestMLPGradientMatchesFiniteDiff(t *testing.T) {
	ds := testDataset(t, 10, 6, 0.6, 3)
	checkGradient(t, NewMLP([]int{6, 4, 3, 2}), ds, 12)
}

func TestMLPDeepGradientMatchesFiniteDiff(t *testing.T) {
	ds := testDataset(t, 6, 5, 0.8, 4)
	checkGradient(t, NewMLP([]int{5, 7, 4, 3, 2}), ds, 13)
}

func TestSGDStepEqualsExplicitGradientStep(t *testing.T) {
	// Property: SGDStep(w) == w - step*AccumGrad for every model.
	ds := testDataset(t, 15, 10, 0.4, 5)
	models := []Model{NewLR(10), NewSVM(10), NewMLP([]int{10, 5, 2})}
	rng := rand.New(rand.NewSource(14))
	for _, m := range models {
		scr := m.NewScratch()
		w := make([]float64, m.NumParams())
		for j := range w {
			w[j] = rng.NormFloat64() * 0.3
		}
		i := rng.Intn(ds.N())
		step := 0.05
		g := make([]float64, len(w))
		m.AccumGrad(w, ds, i, 1, g, scr)
		want := append([]float64(nil), w...)
		tensor.Axpy(-step, g, want)

		got := append([]float64(nil), w...)
		m.SGDStep(got, ds, i, step, RawUpdater{}, m.NewScratch())
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("%s: SGDStep[%d] = %v, want %v", m.Name(), j, got[j], want[j])
			}
		}
	}
}

func TestLRInitialLossIsLn2(t *testing.T) {
	ds := testDataset(t, 30, 6, 0.5, 6)
	m := NewLR(6)
	w := m.InitParams(1)
	if got := MeanLoss(m, w, ds); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("initial LR loss = %v, want ln 2", got)
	}
}

func TestSVMInitialLossIsOne(t *testing.T) {
	ds := testDataset(t, 30, 6, 0.5, 7)
	m := NewSVM(6)
	w := m.InitParams(1)
	if got := MeanLoss(m, w, ds); math.Abs(got-1) > 1e-12 {
		t.Fatalf("initial SVM loss = %v, want 1", got)
	}
}

func TestMLPParamLayout(t *testing.T) {
	m := NewMLP([]int{54, 10, 5, 2})
	want := 54*10 + 10 + 10*5 + 5 + 5*2 + 2
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
	w := m.InitParams(42)
	if len(w) != want {
		t.Fatalf("len(InitParams) = %d", len(w))
	}
	// Weight/Bias views must tile the vector without overlap.
	seen := make([]bool, want)
	for l := 0; l < m.Layers(); l++ {
		wm := m.Weight(w, l)
		if wm.Rows != m.Widths[l+1] || wm.Cols != m.Widths[l] {
			t.Fatalf("layer %d weight shape %dx%d", l, wm.Rows, wm.Cols)
		}
		markRange(t, seen, w, wm.Data)
		markRange(t, seen, w, m.Bias(w, l))
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("param %d not covered by any view", i)
		}
	}
}

func markRange(t *testing.T, seen []bool, base, view []float64) {
	t.Helper()
	if len(view) == 0 {
		return
	}
	off := offsetOf(base, view)
	for i := 0; i < len(view); i++ {
		if seen[off+i] {
			t.Fatalf("param %d covered twice", off+i)
		}
		seen[off+i] = true
	}
}

func offsetOf(base, view []float64) int {
	for i := range base {
		if &base[i] == &view[0] {
			return i
		}
	}
	return -1
}

func TestMLPInitDeterministic(t *testing.T) {
	m := NewMLP([]int{10, 5, 2})
	a := m.InitParams(7)
	b := m.InitParams(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitParams not deterministic")
		}
	}
	c := m.InitParams(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical init")
	}
}

func TestGradSupport(t *testing.T) {
	ds := testDataset(t, 5, 20, 0.3, 8)
	lr := NewLR(20)
	for i := 0; i < ds.N(); i++ {
		if lr.GradSupport(ds, i) != ds.X.RowNNZ(i) {
			t.Fatal("LR support != row nnz")
		}
	}
	mlp := NewMLP([]int{20, 10, 5, 2})
	for i := 0; i < ds.N(); i++ {
		want := ds.X.RowNNZ(i)*10 + 10 + (10*5 + 5) + (5*2 + 2)
		if got := mlp.GradSupport(ds, i); got != want {
			t.Fatalf("MLP support = %d, want %d", got, want)
		}
	}
}

func TestLRLossConvexityAlongSegment(t *testing.T) {
	// Property: LR loss is convex, so f((a+b)/2) <= (f(a)+f(b))/2.
	ds := testDataset(t, 25, 6, 0.5, 9)
	m := NewLR(6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 6)
		b := make([]float64, 6)
		mid := make([]float64, 6)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = rng.NormFloat64()
			mid[j] = (a[j] + b[j]) / 2
		}
		fa := MeanLoss(m, a, ds)
		fb := MeanLoss(m, b, ds)
		fm := MeanLoss(m, mid, ds)
		return fm <= (fa+fb)/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSVMLossNonNegative(t *testing.T) {
	ds := testDataset(t, 25, 6, 0.5, 10)
	m := NewSVM(6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, 6)
		for j := range w {
			w[j] = rng.NormFloat64() * 3
		}
		scr := m.NewScratch()
		for i := 0; i < ds.N(); i++ {
			if m.ExampleLoss(w, ds, i, scr) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMLPForwardProbabilities(t *testing.T) {
	ds := testDataset(t, 10, 8, 0.5, 11)
	m := NewMLP([]int{8, 6, 2})
	w := m.InitParams(3)
	scr := m.NewScratch().(*mlpScratch)
	for i := 0; i < ds.N(); i++ {
		p := m.forward(w, ds, i, scr)
		if len(p) != 2 {
			t.Fatalf("probs len %d", len(p))
		}
		if math.Abs(p[0]+p[1]-1) > 1e-9 || p[0] < 0 || p[1] < 0 {
			t.Fatalf("invalid probs %v", p)
		}
	}
}

func TestNewMLPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("single-layer MLP did not panic")
		}
	}()
	NewMLP([]int{5})
}
