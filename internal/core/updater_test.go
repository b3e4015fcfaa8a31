package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/model"
)

// TestUpdatersAgree checks every model.Updater the engines step through
// against the scalar per-component loop: one AddScaled row and one AddDense
// span at nonzero offsets, overlapping on some components, must land the
// same bits in w, and the write-set recorder must list each written
// component exactly once.
func TestUpdatersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 96
	w0 := make([]float64, dim)
	for i := range w0 {
		w0[i] = rng.NormFloat64()
	}
	const off, offDense = 5, 30
	cols := []int32{0, 3, 7, 12, 25, 26, 31, 40, 58}
	vals := make([]float64, len(cols))
	for k := range vals {
		vals[k] = rng.NormFloat64()
	}
	g := make([]float64, 11) // covers 30..40, overlapping the row at 30, 31 and 36
	for k := range g {
		g[k] = rng.NormFloat64()
	}
	const a = -0.3711

	want := slices.Clone(w0)
	written := map[int]bool{}
	for k, c := range cols {
		want[off+int(c)] += a * vals[k]
		written[off+int(c)] = true
	}
	for k, v := range g {
		want[offDense+k] += a * v
		written[offDense+k] = true
	}

	check := func(name string, got []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: w[%d] = %v, scalar loop gives %v", name, i, got[i], want[i])
			}
		}
	}
	apply := func(u model.Updater, w []float64) {
		u.AddScaled(w, off, cols, vals, a)
		u.AddDense(w, offDense, g, a)
	}

	raw := slices.Clone(w0)
	apply(model.RawUpdater{}, raw)
	check("RawUpdater", raw)

	capt := &captureUpdater{}
	captured := slices.Clone(w0)
	apply(capt, captured)
	if len(capt.idx) != len(cols)+len(g) || len(capt.delta) != len(capt.idx) {
		t.Fatalf("captureUpdater recorded %d/%d updates, want %d", len(capt.idx), len(capt.delta), len(cols)+len(g))
	}
	applyFate(chaos.FateApply, captured, capt)
	check("captureUpdater+applyFate", captured)

	touch := &touchUpdater{stamp: make([]uint32, dim), list: make([]int32, 0, dim)}
	touch.reset()
	touched := slices.Clone(w0)
	apply(touch, touched)
	check("touchUpdater", touched)
	listed := map[int]bool{}
	for _, i := range touch.list {
		if listed[int(i)] {
			t.Errorf("touchUpdater lists component %d twice", i)
		}
		listed[int(i)] = true
	}
	if len(listed) != len(written) {
		t.Errorf("touchUpdater lists %d components, %d were written", len(listed), len(written))
	}
	for i := range written {
		if !listed[i] {
			t.Errorf("touchUpdater misses written component %d", i)
		}
	}
}
