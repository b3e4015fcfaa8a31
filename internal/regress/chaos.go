package regress

import (
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/model"
)

// This file is the degradation half of the harness: where the golden gates
// check that *healthy* runs converge, the chaos runner re-executes the same
// engine matrix under a named fault plan (internal/chaos) and reports how
// each configuration's time-to-threshold degrades. The report is the
// paper's sync-fragile/async-robust contrast as data: a straggler that
// multiplies every synchronous epoch barely stretches the dynamically
// claimed asynchronous ones.

// ChaosOpts parameterises a degradation run.
type ChaosOpts struct {
	// Seed drives the model init, the shuffle streams, the injector
	// streams and (in sequential mode) the interleaving (0 = the config's
	// BaseSeed).
	Seed int64 `json:"seed"`
	// Sequential runs the faulted epochs, and the healthy baseline of an
	// asynchronous config, on the virtual-time scheduler, making the whole
	// report exactly replayable (and host-independent).
	Sequential bool `json:"sequential"`
	// Deadline, when positive, arms the synchronous engines' barrier
	// deadline (see chaos.Controller.Deadline); 0 is classic BSP.
	Deadline float64 `json:"deadline,omitempty"`
	// SSPBound, when positive, bounds the Hogwild workers' progress skew
	// (the stale-synchronous-parallel graceful-degradation variant).
	SSPBound int `json:"ssp_bound,omitempty"`
	// Intensities scales the plan per faulted run (default {1}); 0 is the
	// healthy plan, 2 twice the nominal fault pressure.
	Intensities []float64 `json:"intensities,omitempty"`
	// Tol is the gap tolerance defining each config's loss threshold:
	// a run "reaches threshold" when it closes (1-Tol) of the loss gap
	// the healthy run closed (default 0.1).
	Tol float64 `json:"tol,omitempty"`
}

// ChaosRun is one faulted execution of one config. Sentinels keep the
// report JSON-clean: EpochToThreshold is -1 and SecsToThreshold/Slowdown
// are -1 when the threshold was never reached.
type ChaosRun struct {
	Intensity float64    `json:"intensity"`
	Plan      chaos.Plan `json:"plan"`
	FinalLoss float64    `json:"final_loss"`
	// SecPerEpoch is the mean modeled seconds per faulted epoch.
	SecPerEpoch float64 `json:"sec_per_epoch"`
	// Reached reports whether the loss threshold was met within the
	// config's epoch budget.
	Reached          bool    `json:"reached"`
	EpochToThreshold int     `json:"epoch_to_threshold"`
	SecsToThreshold  float64 `json:"secs_to_threshold"`
	// Slowdown is the time-to-threshold ratio against the healthy run —
	// the degradation number the report exists for.
	Slowdown float64 `json:"slowdown"`
}

// ChaosConfigReport is one config's healthy baseline plus its faulted runs.
type ChaosConfigReport struct {
	Config   string `json:"config"`
	Strategy string `json:"strategy"`
	Device   string `json:"device"`
	Dataset  string `json:"dataset"`
	// InitLoss/HealthyFinalLoss bracket the gap the threshold is cut from.
	InitLoss         float64 `json:"init_loss"`
	HealthyFinalLoss float64 `json:"healthy_final_loss"`
	Threshold        float64 `json:"threshold"`
	// HealthySecs is the healthy run's modeled time to its own threshold.
	HealthyEpochs int        `json:"healthy_epochs"`
	HealthySecs   float64    `json:"healthy_secs"`
	Faulted       []ChaosRun `json:"faulted"`
}

// DegradationReport is the full matrix × plan outcome `sgdgate chaos` emits.
type DegradationReport struct {
	Plan    chaos.Plan          `json:"plan"`
	Opts    ChaosOpts           `json:"opts"`
	Configs []ChaosConfigReport `json:"configs"`
	// MinSyncSlowdown is the mildest time-to-threshold degradation among
	// the synchronous configs at nominal intensity (-1 when no sync config
	// reached threshold at all — infinite degradation), MaxAsyncSlowdown
	// the worst among the asynchronous ones. MinSyncSlowdown >>
	// MaxAsyncSlowdown is the paper's contrast.
	MinSyncSlowdown  float64 `json:"min_sync_slowdown"`
	MaxAsyncSlowdown float64 `json:"max_async_slowdown"`
	// AsyncAllReached reports whether every async config still met its
	// threshold under the nominal plan.
	AsyncAllReached bool `json:"async_all_reached"`
}

// runUnder executes one seeded run of the config, optionally under a chaos
// controller, returning the loss curve (index 0 = initial loss) and the
// cumulative modeled seconds after each epoch.
func runUnder(c Config, ctrl *chaos.Controller, seed int64) (losses, cum []float64, err error) {
	e, m, ds, err := c.Build()
	if err != nil {
		return nil, nil, err
	}
	core.Seed(e, seed)
	if ctrl != nil {
		if !core.InjectChaos(e, ctrl) {
			return nil, nil, fmt.Errorf("regress: engine %s does not accept a chaos controller", e.Name())
		}
	}
	w := m.InitParams(seed)
	losses = append(losses, model.MeanLoss(m, w, ds))
	var elapsed float64
	for ep := 0; ep < c.Epochs; ep++ {
		elapsed += e.RunEpoch(w)
		cum = append(cum, elapsed)
		losses = append(losses, model.MeanLoss(m, w, ds))
	}
	return losses, cum, nil
}

// timeTo finds the first epoch whose loss is at or below thr; (-1, -1) when
// never reached.
func timeTo(thr float64, losses, cum []float64) (epoch int, secs float64) {
	for ep := 1; ep < len(losses); ep++ {
		if losses[ep] <= thr {
			return ep, cum[ep-1]
		}
	}
	return -1, -1
}

// RunChaos runs one config's healthy baseline and its faulted repetitions
// under the plan at every requested intensity.
func RunChaos(c Config, plan chaos.Plan, opts ChaosOpts) (ChaosConfigReport, error) {
	tol := opts.Tol
	if tol <= 0 {
		tol = 0.1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = c.BaseSeed
	}
	intensities := opts.Intensities
	if len(intensities) == 0 {
		intensities = []float64{1}
	}
	// In sequential mode an asynchronous baseline runs on the same
	// virtual-time scheduler as its faulted runs, under an empty plan:
	// left to real goroutines it races, and every threshold below is cut
	// from it, so the report would not replay.
	var healthy *chaos.Controller
	if opts.Sequential && !c.Deterministic() {
		healthy = chaos.New(chaos.Plan{}, seed)
		healthy.Sequential = true
		healthy.Workers = c.Threads
	}
	healthyLoss, healthyCum, err := runUnder(c, healthy, seed)
	if err != nil {
		return ChaosConfigReport{}, err
	}
	init := healthyLoss[0]
	final := healthyLoss[len(healthyLoss)-1]
	// The threshold is cut from the healthy run itself: close (1-tol) of
	// the gap it closed. The healthy run reaches it by its last epoch by
	// construction, so every degradation ratio is well-defined.
	thr := core.GapThreshold(init, final, tol)
	hep, hsec := timeTo(thr, healthyLoss, healthyCum)
	rep := ChaosConfigReport{
		Config:           c.Fingerprint().Key(),
		Strategy:         c.Strategy,
		Device:           c.Device,
		Dataset:          c.Dataset,
		InitLoss:         init,
		HealthyFinalLoss: final,
		Threshold:        thr,
		HealthyEpochs:    hep,
		HealthySecs:      hsec,
	}
	if hep < 0 {
		return rep, fmt.Errorf("regress: healthy run of %s did not reach its own threshold", rep.Config)
	}
	for _, intensity := range intensities {
		ctrl := chaos.New(plan.Scale(intensity), seed)
		ctrl.Sequential = opts.Sequential
		ctrl.Deadline = opts.Deadline
		ctrl.SSPBound = opts.SSPBound
		ctrl.Workers = c.Threads
		losses, cum, err := runUnder(c, ctrl, seed)
		if err != nil {
			return rep, err
		}
		ep, sec := timeTo(thr, losses, cum)
		run := ChaosRun{
			Intensity:        intensity,
			Plan:             ctrl.Plan,
			FinalLoss:        losses[len(losses)-1],
			SecPerEpoch:      cum[len(cum)-1] / float64(c.Epochs),
			Reached:          ep >= 0,
			EpochToThreshold: ep,
			SecsToThreshold:  sec,
			Slowdown:         -1,
		}
		if ep >= 0 && hsec > 0 {
			run.Slowdown = sec / hsec
		}
		rep.Faulted = append(rep.Faulted, run)
	}
	return rep, nil
}

// nominalRun picks the config's faulted run closest to intensity 1.
func nominalRun(rep ChaosConfigReport) *ChaosRun {
	var best *ChaosRun
	for i := range rep.Faulted {
		r := &rep.Faulted[i]
		if best == nil || math.Abs(r.Intensity-1) < math.Abs(best.Intensity-1) {
			best = r
		}
	}
	return best
}

// IsSyncStrategy classifies a strategy for the contrast summary and gate: the
// barriered rows of the strategy table are the fragile side.
func IsSyncStrategy(s string) bool { return strategies[s].sync }

// Degradation runs the whole config set under the plan and summarises the
// sync/async contrast at nominal intensity.
func Degradation(configs []Config, plan chaos.Plan, opts ChaosOpts) (DegradationReport, error) {
	rep := DegradationReport{Plan: plan, Opts: opts, MinSyncSlowdown: -1, AsyncAllReached: true}
	for _, c := range configs {
		cr, err := RunChaos(c, plan, opts)
		if err != nil {
			return rep, err
		}
		rep.Configs = append(rep.Configs, cr)
		nom := nominalRun(cr)
		if nom == nil {
			continue
		}
		if IsSyncStrategy(c.Strategy) {
			// An unreached sync run is infinite degradation: it can never
			// be the mildest, so only reached runs enter the min.
			if nom.Reached && (rep.MinSyncSlowdown < 0 || nom.Slowdown < rep.MinSyncSlowdown) {
				rep.MinSyncSlowdown = nom.Slowdown
			}
		} else {
			if !nom.Reached {
				rep.AsyncAllReached = false
			} else if nom.Slowdown > rep.MaxAsyncSlowdown {
				rep.MaxAsyncSlowdown = nom.Slowdown
			}
		}
	}
	return rep, nil
}
