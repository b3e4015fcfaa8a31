package main

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/data"
)

// The reference is the benchmark's own logistic-regression trainer, written
// with plain loops and none of the program's kernels. It has two jobs.
//
// Target: a workload's loss target is the loss this trainer reaches after a
// fixed number of epochs on the workload's own generated data. A constant
// loss would not do: the dataset changes with -seed, and the epochs the
// program needs to reach a fixed loss then move by 5x (63..339 on real-sim
// for seeds 0..5). Measured against the reference the crossing moves by a
// few percent, so epochs_to_target stays a property of the program.
//
// Oracle: with batch == N the trainer is exactly the program's synchronous
// engine (full-batch gradient descent), so that engine's loss curve must
// match it to rounding.

// log1pExp is log(1+exp(x)) without overflow.
func log1pExp(x float64) float64 {
	if x > 0 {
		return x + math.Log1p(math.Exp(-x))
	}
	return math.Log1p(math.Exp(x))
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func rowDot(ds *data.Dataset, i int, w []float64) float64 {
	cols, vals := ds.X.Row(i)
	var s float64
	for k, c := range cols {
		s += vals[k] * w[c]
	}
	return s
}

// splitRange cuts [0, n) into at most parts contiguous ranges.
func splitRange(n, parts int) [][2]int {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([][2]int, 0, parts)
	for p := 0; p < parts; p++ {
		out = append(out, [2]int{p * n / parts, (p + 1) * n / parts})
	}
	return out
}

// refLoss is the mean log-loss of w over ds, summed in row order within
// each of the parts and then in part order, so it repeats exactly for a
// given parts.
func refLoss(ds *data.Dataset, w []float64, parts int) float64 {
	ranges := splitRange(ds.N(), parts)
	sums := make([]float64, len(ranges))
	var wg sync.WaitGroup
	for p, r := range ranges {
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			var s float64
			for i := lo; i < hi; i++ {
				s += log1pExp(-ds.Y[i] * rowDot(ds, i, w))
			}
			sums[p] = s
		}(p, r[0], r[1])
	}
	wg.Wait()
	var s float64
	for _, x := range sums {
		s += x
	}
	return s / float64(ds.N())
}

// refConfig is one reference training run.
type refConfig struct {
	step   float64
	batch  int   // examples per update: 1 = sequential SGD, N = full-batch descent
	seed   int64 // shuffle stream (unused when batch == N)
	epochs int
	evalAt func(epoch int) bool // epochs whose loss is recorded
	parts  int                  // goroutines for full-batch gradients and losses
}

// refTrain runs minibatch SGD from zero weights: every update moves w by
// -step times the mean gradient of the next batch rows of a fresh shuffle.
// It returns the recorded losses by epoch and the final weights.
func refTrain(ds *data.Dataset, c refConfig) (map[int]float64, []float64) {
	n, d := ds.N(), ds.D()
	w := make([]float64, d)
	losses := make(map[int]float64)
	if c.evalAt(0) {
		losses[0] = refLoss(ds, w, c.parts)
	}
	batch := c.batch
	if batch > n {
		batch = n
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := rand.New(rand.NewSource(c.seed))
	var grads [][]float64 // per-part gradient buffers, batch > 1 only
	if batch > 1 {
		parts := 1
		if batch >= 4096 {
			parts = c.parts
		}
		for p := 0; p < parts; p++ {
			grads = append(grads, make([]float64, d))
		}
	}
	for ep := 1; ep <= c.epochs; ep++ {
		if batch < n {
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			if batch == 1 {
				i := perm[lo]
				y := ds.Y[i]
				a := c.step * y * sigmoid(-y*rowDot(ds, i, w))
				cols, vals := ds.X.Row(i)
				for k, col := range cols {
					w[col] += a * vals[k]
				}
				continue
			}
			refBatchGrad(ds, w, perm[lo:hi], grads)
			scale := c.step / float64(hi-lo)
			for _, g := range grads {
				for j, gj := range g {
					if gj != 0 {
						w[j] -= scale * gj
						g[j] = 0
					}
				}
			}
		}
		if c.evalAt(ep) {
			losses[ep] = refLoss(ds, w, c.parts)
		}
	}
	return losses, w
}

// refBatchGrad adds the summed gradient of rows into grads, rows split
// contiguously over the buffers (one goroutine each when there are several).
func refBatchGrad(ds *data.Dataset, w []float64, rows []int, grads [][]float64) {
	accum := func(g []float64, rows []int) {
		for _, i := range rows {
			y := ds.Y[i]
			coef := -y * sigmoid(-y*rowDot(ds, i, w))
			cols, vals := ds.X.Row(i)
			for k, col := range cols {
				g[col] += coef * vals[k]
			}
		}
	}
	if len(grads) == 1 {
		accum(grads[0], rows)
		return
	}
	var wg sync.WaitGroup
	for p, r := range splitRange(len(rows), len(grads)) {
		wg.Add(1)
		go func(g []float64, rows []int) {
			defer wg.Done()
			accum(g, rows)
		}(grads[p], rows[r[0]:r[1]])
	}
	wg.Wait()
}

// refTarget runs the reference runs times on distinct shuffles, all at once,
// and returns the mean recorded loss per epoch. Averaging matters: one SGD
// run's loss at a given epoch carries shuffle noise worth about half an
// epoch of progress, which would move every repetition's crossing together.
func refTarget(ds *data.Dataset, c refConfig, runs int) map[int]float64 {
	all := make([]map[int]float64, runs)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cr := c
			cr.seed = c.seed + int64(r)
			if runs > 1 {
				cr.parts = 1 // the runs themselves fill the cores
			}
			all[r], _ = refTrain(ds, cr)
		}(r)
	}
	wg.Wait()
	out := make(map[int]float64)
	for ep := range all[0] {
		var s float64
		for r := range all {
			s += all[r][ep]
		}
		out[ep] = s / float64(runs)
	}
	return out
}
