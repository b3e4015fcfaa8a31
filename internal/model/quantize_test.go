package model

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantizeRoundtripWithinHalfStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 63, 64, 65, 300, 1000} {
		w := make([]float64, dim)
		for i := range w {
			w[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
		}
		qw := Quantize(w)
		if qw.Dim != dim || len(qw.Q) != dim || len(qw.Scales) != (dim+QuantStripe-1)/QuantStripe {
			t.Fatalf("dim %d: bad shapes %d/%d/%d", dim, qw.Dim, len(qw.Q), len(qw.Scales))
		}
		for i := range w {
			sc := qw.Scales[i>>6]
			if err := math.Abs(qw.At(i) - w[i]); err > sc/2*(1+1e-12) {
				t.Errorf("dim %d comp %d: |%g - %g| = %g > scale/2 = %g",
					dim, i, qw.At(i), w[i], err, sc/2)
			}
		}
	}
}

func TestQuantizeZeroStripeExact(t *testing.T) {
	w := make([]float64, 128)
	for i := 64; i < 128; i++ {
		w[i] = float64(i)
	}
	qw := Quantize(w)
	if qw.Scales[0] != 1 {
		t.Errorf("all-zero stripe scale = %g, want 1", qw.Scales[0])
	}
	for i := 0; i < 64; i++ {
		if qw.At(i) != 0 {
			t.Errorf("zero weight %d dequantised to %g", i, qw.At(i))
		}
	}
}

func TestQuantizeExtremesHitFullRange(t *testing.T) {
	w := make([]float64, 64)
	w[0], w[1] = 3, -3
	qw := Quantize(w)
	if qw.Q[0] != 127 || qw.Q[1] != -127 {
		t.Errorf("maxabs components coded %d/%d, want 127/-127", qw.Q[0], qw.Q[1])
	}
}

func TestQuantRowDotMatchesDequantizedDot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := testDataset(t, 40, 200, 0.1, 7)
	w := make([]float64, 200)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	qw := Quantize(w)
	dq := make([]float64, 200)
	qw.Dequantize(dq)
	for i := 0; i < ds.N(); i++ {
		got := qw.RowDot(ds.X, i)
		want := ds.X.RowDot(i, dq)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("row %d: RowDot %g != dequantised dot %g", i, got, want)
		}
		// And the analytic bound holds against the float64 dot.
		ref := ds.X.RowDot(i, w)
		if d, b := math.Abs(got-ref), qw.RowErrorBound(ds.X, i); d > b*(1+1e-9)+1e-12 {
			t.Errorf("row %d: delta %g exceeds analytic bound %g", i, d, b)
		}
	}
}

func TestQuantScoreLinearModels(t *testing.T) {
	ds := testDataset(t, 30, 150, 0.1, 8)
	rng := rand.New(rand.NewSource(9))
	w := make([]float64, 150)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.3
	}
	qw := Quantize(w)
	for _, m := range []QuantScorer{NewLR(150), NewSVM(150)} {
		scr := m.NewScratch()
		for i := 0; i < ds.N(); i++ {
			got := m.QuantScore(qw, ds, i)
			ref := m.Score(w, ds, i, scr)
			if d, b := math.Abs(got-ref), qw.RowErrorBound(ds.X, i); d > b*(1+1e-9)+1e-12 {
				t.Errorf("%s row %d: quant score delta %g exceeds bound %g", m.Name(), i, d, b)
			}
		}
	}
}
