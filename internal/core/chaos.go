package core

import (
	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/model"
)

// ChaosHost is implemented by engines that can run under a fault-injection
// controller (internal/chaos). All four in-repo engine families implement
// it; external-framework engines are left dark, like Instrumented.
type ChaosHost interface {
	// SetChaos attaches the controller subsequent epochs run under; nil
	// detaches it and restores the healthy fast paths.
	SetChaos(*chaos.Controller)
}

// InjectChaos attaches c to e if the engine supports fault injection and
// reports whether it did.
func InjectChaos(e Engine, c *chaos.Controller) bool {
	if h, ok := e.(ChaosHost); ok {
		h.SetChaos(c)
		return true
	}
	return false
}

// fateTimes is how often an update lands under the injector's verdict: once,
// twice (duplicated), or not at all (dropped).
func fateTimes(f chaos.Fate) int {
	switch f {
	case chaos.FateDrop:
		return 0
	case chaos.FateDup:
		return 2
	}
	return 1
}

// fatedStep takes one SGD step of example i on the private vector w under the
// stream's verdict — a nil stream is healthy: applied once, at unit cost — and
// returns the step's virtual-time cost. It is the replica step of the
// sequencer-driven engines.
func fatedStep(s *chaos.Stream, m model.Model, ds *data.Dataset, w []float64, i int, step float64, capt *captureUpdater, scr model.Scratch) float64 {
	cost, fate := 1.0, chaos.FateApply
	if s != nil {
		fate, cost = s.Fate(), s.Cost()
	}
	capt.reset()
	m.SGDStep(w, ds, i, step, capt, scr)
	applyFate(fate, model.RawUpdater{}, w, capt)
	return cost
}

// applyFate lands one captured update under the injector's verdict.
func applyFate(f chaos.Fate, u model.Updater, w []float64, capt *captureUpdater) {
	for t := fateTimes(f); t > 0; t-- {
		for k, ix := range capt.idx {
			u.Add(w, ix, capt.delta[k])
		}
	}
}
