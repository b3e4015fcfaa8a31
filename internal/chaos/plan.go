// Package chaos is the deterministic fault-injection and schedule-control
// layer of the reproduction. The paper's central finding is that
// asynchronous (Hogwild-style) SGD wins on hardware efficiency because it
// tolerates disorder — stale reads, lost updates, uneven worker progress —
// while synchronous SGD pays for order with barriers. The regress gates
// check that *healthy* runs converge; this package asks the complementary
// question: what happens when a worker stalls 10x longer than its peers, a
// bounded fraction of updates is dropped or duplicated, or reads are
// arbitrarily stale?
//
// Two halves:
//
//   - Injection. A Plan names a fault mix; an Injector turns it into
//     deterministic per-worker decision streams (counter-hashed from the
//     seed, so decisions do not depend on scheduling order or shared RNG
//     state). Engines consult their Worker handle per update; every fault
//     fired is counted through the internal/obs chaos counters, so
//     sgdtrace/sgdgate report fault rates next to phase timings.
//
//   - Schedule control. In Sequential mode the Controller runs engine
//     workers on a pool.Sequencer: a virtual-time cooperative scheduler
//     that interleaves per-update turns single-threaded under a seeded
//     order. Hogwild's racy update order — normally a property of the OS
//     scheduler on a many-core host — becomes exactly replayable, which is
//     the substrate every chaos test (and any future async regression
//     test) stands on.
//
// A nil *Controller and a nil *Worker are the healthy ones (Controller.Run),
// so an engine writes each worker loop once, faulted or not.
//
// The modeled-time story: a straggler does not change *what* the async
// engines compute, only when; with dynamic work claiming the epoch stretch
// is N/((N-S) + S/F) for S stragglers at factor F — near 1 for one slow
// worker out of 56. A synchronous barrier instead waits for the straggler's
// full F-times share, stretching the epoch by ~F. That asymmetry is the
// paper's sync-fragile/async-robust contrast as a measurable curve (see
// internal/regress.Degradation and `sgdgate chaos`).
package chaos

import (
	"fmt"
	"math"
	"sort"
)

// Plan is one named fault mix. The zero Plan injects nothing.
type Plan struct {
	// Name identifies the plan in reports.
	Name string `json:"name"`
	// Stragglers is how many workers run slow (the injector slows the
	// first Stragglers of the worker set, so the choice is deterministic).
	Stragglers int `json:"stragglers,omitempty"`
	// StragglerFactor is the virtual cost multiplier of a straggler's
	// updates (10 = stalls 10x longer than its peers). Values <= 1 mean
	// no slowdown.
	StragglerFactor float64 `json:"straggler_factor,omitempty"`
	// DropFrac is the fraction of gradient updates discarded after
	// computation (torn/lost updates). Clamped to [0, 1].
	DropFrac float64 `json:"drop_frac,omitempty"`
	// DupFrac is the fraction of gradient updates applied twice
	// (retransmission / CAS-retry double-fire). Clamped to [0, 1].
	DupFrac float64 `json:"dup_frac,omitempty"`
	// Staleness serves parameter reads from a per-worker snapshot
	// refreshed every Staleness updates, so gradients are computed
	// against state up to Staleness of the worker's own updates old
	// (0 = always fresh).
	Staleness int `json:"staleness,omitempty"`
	// PartitionFrac is the fraction of transport rounds a worker spends
	// partitioned from the parameter-server tier (internal/ps): while a
	// link is down, pulls fall back to the worker's cached parameters and
	// pushes are lost. Only the distributed engines consult it; the
	// in-process engines have no transport to partition. Clamped to [0, 1].
	PartitionFrac float64 `json:"partition_frac,omitempty"`
}

// Active reports whether the plan injects any fault.
func (p Plan) Active() bool {
	return (p.Stragglers > 0 && p.StragglerFactor > 1) ||
		p.DropFrac > 0 || p.DupFrac > 0 || p.Staleness > 0 || p.PartitionFrac > 0
}

// Scale returns the plan with every fault knob scaled by intensity:
// intensity 0 is the healthy plan, 1 the nominal plan, 2 twice the nominal
// fault pressure. The straggler factor scales in its excess over 1 (a
// straggler at factor 10 becomes 5.5 at intensity 0.5), fractions scale
// linearly with clamping, staleness rounds to the nearest update.
func (p Plan) Scale(intensity float64) Plan {
	if intensity < 0 {
		intensity = 0
	}
	s := p
	if p.StragglerFactor > 1 {
		s.StragglerFactor = 1 + (p.StragglerFactor-1)*intensity
	}
	if intensity == 0 {
		s.Stragglers = 0
	}
	s.DropFrac = clamp01(p.DropFrac * intensity)
	s.DupFrac = clamp01(p.DupFrac * intensity)
	s.Staleness = int(math.Round(float64(p.Staleness) * intensity))
	s.PartitionFrac = clamp01(p.PartitionFrac * intensity)
	return s
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// AsyncSlowdown returns the modeled epoch stretch the plan inflicts on an
// asynchronous engine whose workers claim work dynamically: the S straggling
// workers contribute 1/F of a healthy worker's throughput each, so the
// epoch stretches by N/((N-S) + S/F). For 1 straggler at 10x among 56
// workers that is ~1.02 — the async engines barely notice.
func (p Plan) AsyncSlowdown(workers int) float64 {
	if workers <= 0 || p.Stragglers <= 0 || p.StragglerFactor <= 1 {
		return 1
	}
	s := float64(min(p.Stragglers, workers))
	n := float64(workers)
	return n / ((n - s) + s/p.StragglerFactor)
}

// SyncSlowdown returns the modeled epoch stretch on a barriered synchronous
// engine with static work shares: the barrier waits for the slowest worker,
// whose fixed share takes StragglerFactor times longer — the epoch
// stretches by the full factor regardless of how many workers are healthy.
func (p Plan) SyncSlowdown() float64 {
	if p.Stragglers <= 0 || p.StragglerFactor <= 1 {
		return 1
	}
	return p.StragglerFactor
}

// String renders the plan compactly for logs and reports.
func (p Plan) String() string {
	if !p.Active() {
		return p.Name + "(healthy)"
	}
	s := fmt.Sprintf("%s(straggler=%dx%.3g drop=%.3g dup=%.3g stale=%d",
		p.Name, p.Stragglers, p.StragglerFactor, p.DropFrac, p.DupFrac, p.Staleness)
	if p.PartitionFrac > 0 {
		s += fmt.Sprintf(" partition=%.3g", p.PartitionFrac)
	}
	return s + ")"
}

// plans is the named catalogue. "storm" is the acceptance plan of the
// degradation report: >=10x straggler on one worker plus 1% dropped
// updates, the mix under which the paper's contrast must show.
var plans = map[string]Plan{
	"none":      {Name: "none"},
	"straggler": {Name: "straggler", Stragglers: 1, StragglerFactor: 10},
	"drops":     {Name: "drops", DropFrac: 0.01},
	"dups":      {Name: "dups", DupFrac: 0.01},
	"stale":     {Name: "stale", Staleness: 64},
	"storm":     {Name: "storm", Stragglers: 1, StragglerFactor: 10, DropFrac: 0.01},
	"partition": {Name: "partition", PartitionFrac: 0.1},
}

// Lookup resolves a named plan.
func Lookup(name string) (Plan, error) {
	p, ok := plans[name]
	if !ok {
		return Plan{}, fmt.Errorf("chaos: unknown plan %q (have %v)", name, PlanNames())
	}
	return p, nil
}

// PlanNames lists the catalogue in sorted order.
func PlanNames() []string {
	out := make([]string, 0, len(plans))
	for n := range plans {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
