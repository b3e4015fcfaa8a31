package regress

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
)

// trainedLR trains a small LR the way the serving tier would receive one.
func trainedLR(t *testing.T, name string, n int) (*model.LR, []float64, *data.Dataset) {
	t.Helper()
	spec, err := data.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	ds := data.Generate(spec.Scaled(float64(n) / float64(spec.N)))
	m := model.NewLR(ds.D())
	e := core.NewHogwild(m, ds, 0.3, 1)
	e.SetShuffleSeed(7)
	w := m.InitParams(1)
	for ep := 0; ep < 5; ep++ {
		e.RunEpoch(w)
	}
	return m, w, ds
}

// TestQuantGatePassesOnTrainedModel: the committed thresholds hold for a
// freshly trained LR — the int8 path loses neither pointwise accuracy beyond
// the analytic envelope nor ranking quality.
func TestQuantGatePassesOnTrainedModel(t *testing.T) {
	m, w, ds := trainedLR(t, "w8a", 400)
	chk := QuantGate(m, w, ds, DefaultQuantThresholds())
	if !chk.Pass {
		t.Fatalf("quant gate failed on a trained model: %+v", chk)
	}
	if chk.BoundViolations != 0 {
		t.Errorf("%d analytic bound violations", chk.BoundViolations)
	}
	if chk.MaxAbsDelta <= 0 || chk.MaxAbsDelta > chk.DeltaLimit {
		t.Errorf("max delta %g outside (0, %g]", chk.MaxAbsDelta, chk.DeltaLimit)
	}
	if chk.AUCFloat <= 0.5 {
		t.Errorf("trained model AUC %g not informative; gate proves nothing", chk.AUCFloat)
	}
	if chk.AUCDelta > chk.AUCLimit {
		t.Errorf("AUC delta %g > %g", chk.AUCDelta, chk.AUCLimit)
	}
	if chk.Model != "lr" || chk.N != ds.N() {
		t.Errorf("report identity wrong: %+v", chk)
	}
}

// TestQuantGateFailsOnImpossibleThresholds: the same healthy model must fail
// when the caller demands better-than-quantisation accuracy — the gate
// actually compares, it does not rubber-stamp.
func TestQuantGateFailsOnImpossibleThresholds(t *testing.T) {
	m, w, ds := trainedLR(t, "w8a", 300)
	chk := QuantGate(m, w, ds, QuantThresholds{MaxAbsDelta: 1e-18})
	if chk.Pass {
		t.Fatalf("impossible delta threshold passed: %+v", chk)
	}
	if !strings.Contains(chk.Detail, "max score delta") {
		t.Errorf("detail %q does not name the failing check", chk.Detail)
	}
}

// TestQuantGateSingleClassFails: a dataset with one class has no defined AUC;
// the gate must fail loudly instead of passing on a NaN comparison.
func TestQuantGateSingleClassFails(t *testing.T) {
	m, w, ds := trainedLR(t, "w8a", 100)
	onesY := make([]float64, ds.N())
	for i := range onesY {
		onesY[i] = 1
	}
	mono := &data.Dataset{Name: "mono", X: ds.X, Y: onesY}
	chk := QuantGate(m, w, mono, DefaultQuantThresholds())
	if chk.Pass {
		t.Fatalf("single-class dataset passed the AUC gate: %+v", chk)
	}
	if !strings.Contains(chk.Detail, "AUC undefined") {
		t.Errorf("detail %q does not flag the undefined AUC", chk.Detail)
	}
}
