package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/ps"
)

// oracleTol is how closely the synchronous engine must follow the
// benchmark's own full-batch descent: the two sum the same terms in a
// different order, nothing else.
const oracleTol = 1e-9

// lossPoint is one evaluation of the training loss.
type lossPoint struct {
	Epoch int
	Loss  float64
	// Seconds is the wall-clock spent inside RunEpoch calls up to here;
	// evaluating the loss is never part of it (the paper's rule).
	Seconds float64
}

// runResult is one run from zero weights to the loss target.
type runResult struct {
	curve   []lossPoint
	epochMS []float64 // wall-clock of every RunEpoch call
	reached bool
	// epochsToTarget and secondsToTarget are the crossing, interpolated
	// between the two loss evaluations that bracket the target.
	epochsToTarget  float64
	secondsToTarget float64
	finite          bool
	w               []float64 // final weights
	wMid            []float64 // weights at the first loss evaluation
	transport       transportCounts
}

// transportCounts is what the counting decorator saw on a parameter-server
// run; all zero on the other engines.
type transportCounts struct {
	pulls, pushes, applied, duplicates, errors int64
}

// countingTransport counts calls and outcomes on a worker's transport. It is
// on in every parameter-server run, traced or not: the cost is an atomic add
// beside an HTTP round trip.
type countingTransport struct {
	base                                       ps.Transport
	pulls, pushes, applied, duplicates, errors *atomic.Int64
}

func (c countingTransport) Pull(shard int) (ps.PullReply, error) {
	rep, err := c.base.Pull(shard)
	c.pulls.Add(1)
	if err != nil {
		c.errors.Add(1)
	}
	return rep, err
}

func (c countingTransport) Push(req ps.PushRequest) (ps.PushReply, error) {
	rep, err := c.base.Push(req)
	c.pushes.Add(1)
	switch {
	case err != nil:
		c.errors.Add(1)
	case rep.Duplicate:
		c.duplicates.Add(1)
	case rep.Applied:
		c.applied.Add(1)
	}
	return rep, err
}

// trainer holds what every run of one workload shares.
type trainer struct {
	wl     *workload
	P      int
	seed   int64
	m      *model.LR
	ds     *data.Dataset
	loss0  float64 // loss at zero weights
	target float64
	tr     *tracer
	// curSpan and curRep are the RunEpoch span now open and its repetition,
	// for decorators that record calls made from inside the epoch.
	curSpan, curRep atomic.Int64
}

// runToTarget builds a fresh engine and runs epochs from zero weights until
// the evaluated loss first reaches the target or maxEpochs have run. Only
// the RunEpoch calls are timed.
func (t *trainer) runToTarget(rep, maxEpochs int, extraDial dialWrap, parent int) runResult {
	var pulls, pushes, applied, dups, errs atomic.Int64
	dial := func(k int, base ps.Transport) ps.Transport {
		var tp ps.Transport = countingTransport{base, &pulls, &pushes, &applied, &dups, &errs}
		if extraDial != nil {
			tp = extraDial(k, tp)
		}
		return tp
	}
	eng, release := t.wl.build(t.P, t.m, t.ds, t.wl.shuffleSeed(t.seed, rep), dial)
	defer release()

	w := t.m.InitParams(0)
	res := runResult{curve: []lossPoint{{0, t.loss0, 0}}}
	prev := res.curve[0]
	var cum float64
	for ep := 1; ep <= maxEpochs; ep++ {
		es := t.tr.begin("epoch", "bench", parent, rep)
		cs := t.tr.begin("core.RunEpoch", t.wl.layer, es, rep)
		t.curSpan.Store(int64(cs))
		t.curRep.Store(int64(rep))
		t0 := time.Now()
		eng.RunEpoch(w)
		dt := time.Since(t0).Seconds()
		t.tr.end(cs)
		t.tr.end(es)
		cum += dt
		res.epochMS = append(res.epochMS, dt*1e3)
		if ep%t.wl.every != 0 {
			continue
		}
		ls := t.tr.begin("loss_eval", "bench", parent, rep)
		ms := t.tr.begin("model.MeanLoss", "model", ls, rep)
		loss := model.MeanLoss(t.m, w, t.ds)
		t.tr.end(ms)
		t.tr.end(ls)
		pt := lossPoint{ep, loss, cum}
		res.curve = append(res.curve, pt)
		if res.wMid == nil {
			res.wMid = append([]float64(nil), w...)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			break
		}
		if loss <= t.target {
			res.reached = true
			res.epochsToTarget = interpolateCrossing(float64(prev.Epoch), float64(ep), prev.Loss, loss, t.target)
			res.secondsToTarget = interpolateCrossing(prev.Seconds, cum, prev.Loss, loss, t.target)
			break
		}
		prev = pt
	}
	res.finite = allFinite(w)
	res.w = w
	res.transport = transportCounts{pulls.Load(), pushes.Load(), applied.Load(), dups.Load(), errs.Load()}
	return res
}

// sameCurve reports whether two runs evaluated bit-identical losses.
func sameCurve(a, b []lossPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Epoch != b[i].Epoch || a[i].Loss != b[i].Loss {
			return false
		}
	}
	return true
}

// checkOracle compares a run's curve with the reference's recorded losses
// at every epoch both evaluated.
func checkOracle(curve []lossPoint, ref map[int]float64, tol float64) error {
	compared := 0
	for _, p := range curve {
		want, ok := ref[p.Epoch]
		if !ok {
			continue
		}
		compared++
		if d := relDiff(p.Loss, want); d > tol {
			return fmt.Errorf("epoch %d: engine loss %.15g, reference %.15g (relative difference %.3g > %.0g)", p.Epoch, p.Loss, want, d, tol)
		}
	}
	if compared < 2 {
		return fmt.Errorf("only %d epochs in common with the reference", compared)
	}
	return nil
}

// checkPSCounts verifies a parameter-server run delivered exactly the calls
// its epochs imply: every push applied, none duplicated, none failed.
func checkPSCounts(c transportCounts, epochs, n, workers, batch, shards int) error {
	// A round hands each worker up to batch rows until the round's rows
	// are used up, so the busy workers per round are ceil(roundRows/batch).
	var cycles int64
	roundSize := workers * batch
	for off := 0; off < n; off += roundSize {
		rows := n - off
		if rows > roundSize {
			rows = roundSize
		}
		cycles += int64((rows + batch - 1) / batch)
	}
	want := int64(epochs) * cycles * int64(shards)
	switch {
	case c.errors != 0:
		return fmt.Errorf("%d transport calls failed", c.errors)
	case c.duplicates != 0:
		return fmt.Errorf("%d pushes were duplicates", c.duplicates)
	case c.applied != want || c.pushes != want || c.pulls != want:
		return fmt.Errorf("pulls/pushes/applied = %d/%d/%d, want %d each", c.pulls, c.pushes, c.applied, want)
	}
	return nil
}
