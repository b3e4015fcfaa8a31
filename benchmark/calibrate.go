package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/data"
	"repro/internal/model"
)

// calRuns is how many engine runs -calibrate compares per workload.
const calRuns = 5

// runCalibrate prints, for each workload (or the named one), the reference
// loss curve beside the engine's over calRuns runs, with the run-to-run
// spread of each at every epoch. The committed refEpochs come from reading
// this table: a target belongs where the engine's curve falls several times
// its own spread per epoch, so that the crossing moves by a few percent only.
func runCalibrate(only string, P int, seed int64, out io.Writer) error {
	found := false
	for i := range workloads {
		wl := &workloads[i]
		if only != "" && wl.name != only {
			continue
		}
		found = true
		if err := calibrateOne(wl, P, seed, out); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	if !found {
		_, err := findWorkload(only)
		return err
	}
	return nil
}

func spread(v []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return hi - lo
}

func calibrateOne(wl *workload, P int, seed int64, out io.Writer) error {
	spec, err := wl.spec(seed)
	if err != nil {
		return err
	}
	ds := data.Generate(spec)
	m := model.NewLR(ds.D())
	refEpochs := wl.refEpochs * 3 / 2

	// Reference runs one by one, so their spread shows.
	refs := make([]map[int]float64, wl.refRuns)
	for r := range refs {
		c := refConfigFor(wl, P, ds, seed, refEpochs, true)
		c.seed += int64(r)
		refs[r], _ = refTrain(ds, c)
	}
	refAt := func(ep int) (float64, float64) {
		v := make([]float64, len(refs))
		for r := range refs {
			v[r] = refs[r][ep]
		}
		return mean(v), spread(v)
	}
	target, _ := refAt(wl.refEpochs)

	t := &trainer{wl: wl, P: P, seed: seed, m: m, ds: ds, target: math.Inf(-1)}
	t.loss0 = model.MeanLoss(m, m.InitParams(0), ds)
	// First find where the engine crosses, then run every repetition half
	// as far again so the slope around the crossing shows.
	t.target = target
	probe := t.runToTarget(0, hardCapFactor*wl.refEpochs+10*wl.every, nil, -1)
	if !probe.reached {
		return fmt.Errorf("engine did not reach the reference loss %.6f", target)
	}
	epochs := int(math.Ceil(probe.epochsToTarget*1.5/float64(wl.every))) * wl.every
	t.target = math.Inf(-1) // never reached: run all epochs
	runs := make([]runResult, calRuns)
	for r := range runs {
		runs[r] = t.runToTarget(r, epochs, nil, -1)
	}

	fmt.Fprintf(out, "\n%s  (%s; %s N=%d d=%d, seed %d, P=%d)\n", wl.name, wl.engine, spec.Name, ds.N(), ds.D(), seed, P)
	fmt.Fprintf(out, "reference: batch %d, step %g, %d runs; target = mean loss after %d epochs = %.6f\n",
		wl.refBatch(P, ds.N()), wl.refStep, wl.refRuns, wl.refEpochs, target)
	fmt.Fprintf(out, "%6s  %10s %9s   %10s %9s  %s\n", "epoch", "ref mean", "ref sprd", "eng mean", "eng sprd", "")
	var crossSlope, crossSpread float64
	prevMean := t.loss0
	for i := 1; i < len(runs[0].curve); i++ {
		ep := runs[0].curve[i].Epoch
		v := make([]float64, 0, calRuns)
		for r := range runs {
			if i < len(runs[r].curve) {
				v = append(v, runs[r].curve[i].Loss)
			}
		}
		em, es := mean(v), spread(v)
		mark := ""
		if prevMean > target && em <= target {
			mark = "<- target crossed"
			crossSlope = (prevMean - em) / float64(wl.every)
			crossSpread = es
		}
		prevMean = em
		if rm, rs := refAt(ep); ep <= refEpochs {
			fmt.Fprintf(out, "%6d  %10.6f %9.6f   %10.6f %9.6f  %s\n", ep, rm, rs, em, es, mark)
		} else {
			fmt.Fprintf(out, "%6d  %10s %9s   %10.6f %9.6f  %s\n", ep, "", "", em, es, mark)
		}
	}
	fmt.Fprintf(out, "engine crosses the target at epoch %.2f; there it falls %.6f per epoch", probe.epochsToTarget, crossSlope)
	if crossSpread == 0 {
		fmt.Fprintf(out, " and repeats exactly from run to run\n")
	} else {
		fmt.Fprintf(out, ", %.1fx its run-to-run spread (%.6f over %d runs)\n", crossSlope/crossSpread, crossSpread, calRuns)
	}
	return nil
}
