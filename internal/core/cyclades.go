package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/numa"
	"repro/internal/obs"
)

// CycladesEngine implements conflict-free asynchronous SGD in the spirit of
// Cyclades (Pan et al., NIPS 2016), which the paper cites as the
// alternative to Hogwild's races: examples are greedily packed into batches
// whose gradient supports are pairwise disjoint, so each batch's updates can
// run on any number of threads with *no* write conflicts and therefore
// sequential-equivalent statistical efficiency. The price is scheduling work
// and shorter parallel phases (a batch ends when no conflict-free example
// remains).
//
// On sparse data the batches are long and the engine approaches Hogwild's
// hardware efficiency without its staleness; on dense data every pair of
// examples conflicts, batches degenerate to singletons and the engine
// degenerates to sequential SGD — the same data-dependence the paper's
// exploratory axes are about.
//
// The shuffle seed decides the order the packing draws examples in, so it
// takes effect at the first epoch (the schedule is computed once). The
// recorder receives phase timings (gradient = conflict-free parallel work,
// barrier = per-batch synchronisation) and the batch/update counts. An
// enabled chaos controller lands each example's update under an injector fate
// and stretches the epoch by the *synchronous* slowdown: every conflict-free
// batch ends in a barrier, so a straggler stalls all of them — Cyclades buys
// determinism at the price of sync-style fragility, the trade-off the
// degradation report makes visible.
type CycladesEngine struct {
	hooks
	shuffle
	Model model.Model
	Data  *data.Dataset
	Step  float64
	// Threads is the modeled worker count executing each batch.
	Threads int
	// Cost prices epochs; defaults to the paper machine.
	Cost *numa.Model
	// CostScale inflates modeled work to the full dataset (1 = none).
	CostScale float64

	batches [][]int // conflict-free example batches (computed once)
	stats   CycladesStats
}

// CycladesStats reports the scheduling outcome.
type CycladesStats struct {
	Batches      int
	MeanBatchLen float64
	MaxBatchLen  int
	// SingletonFrac is the fraction of batches with a single example
	// (fully serialised work).
	SingletonFrac float64
}

// NewCyclades builds the engine with the paper machine's thread count.
func NewCyclades(m model.Model, ds *data.Dataset, step float64, threads int) *CycladesEngine {
	return &CycladesEngine{
		shuffle: newShuffle(),
		Model:   m, Data: ds, Step: step, Threads: threads,
		Cost: numa.PaperMachine(),
	}
}

// Name implements Engine.
func (e *CycladesEngine) Name() string {
	return fmt.Sprintf("async/cpu-cyclades(%d)", e.Threads)
}

// Stats returns the scheduling statistics (valid after the first epoch).
func (e *CycladesEngine) Stats() CycladesStats { return e.stats }

// schedule greedily packs a random permutation of the examples into batches
// with pairwise-disjoint model supports. For LR/SVM the support of example i
// is the column set of row i; models whose gradients always touch shared
// dense blocks (MLP upper layers) conflict on every pair, which the greedy
// packing discovers by itself through the support test.
func (e *CycladesEngine) schedule() {
	e.fill(e.Data.N())
	e.reshuffle()

	dim := e.Model.NumParams()
	// claimed[j] == round means component j is already written in the
	// batch being built during that round.
	claimed := make([]int32, dim)
	for j := range claimed {
		claimed[j] = -1
	}
	pending := e.perm
	probe := &supportProbe{}
	var next []int
	round := int32(0)
	var totalLen, singles int
	for len(pending) > 0 {
		batch := make([]int, 0, len(pending))
		next = next[:0]
		for _, i := range pending {
			if e.tryClaim(i, round, claimed, probe) {
				batch = append(batch, i)
			} else {
				next = append(next, i)
			}
		}
		e.batches = append(e.batches, batch)
		totalLen += len(batch)
		if len(batch) == 1 {
			singles++
		}
		if len(batch) > e.stats.MaxBatchLen {
			e.stats.MaxBatchLen = len(batch)
		}
		pending = append([]int(nil), next...)
		round++
	}
	e.stats.Batches = len(e.batches)
	e.stats.MeanBatchLen = float64(totalLen) / float64(len(e.batches))
	e.stats.SingletonFrac = float64(singles) / float64(len(e.batches))
}

// tryClaim marks example i's support for the given round; it fails, marking
// nothing, if any component was already claimed this round.
func (e *CycladesEngine) tryClaim(i int, round int32, claimed []int32, p *supportProbe) bool {
	sup := p.support(e.Model, e.Data, i)
	for _, idx := range sup {
		if claimed[idx] == round {
			return false
		}
	}
	for _, idx := range sup {
		claimed[idx] = round
	}
	return true
}

// supportProbe lists the model components an example's gradient can write.
// For the linear models that is the row support; for anything else (MLP, MF)
// it asks the model, by capturing a zero-step SGDStep against zero
// parameters — whatever the step routes through the Updater is the support,
// and nothing is applied.
type supportProbe struct {
	capt captureUpdater
	zero []float64
	scr  model.Scratch
}

func (p *supportProbe) support(m model.Model, ds *data.Dataset, i int) []int {
	p.capt.reset()
	if m.Name() == "lr" || m.Name() == "svm" {
		cols, _ := ds.X.Row(i)
		for _, c := range cols {
			p.capt.idx = append(p.capt.idx, int(c))
		}
		return p.capt.idx
	}
	if p.zero == nil {
		p.zero = make([]float64, m.NumParams())
		p.scr = m.NewScratch()
	}
	m.SGDStep(p.zero, ds, i, 0, &p.capt, p.scr)
	return p.capt.idx
}

// RunEpoch implements Engine: batches execute in order; inside a batch the
// updates are conflict-free, so parallel execution is bitwise equal to
// sequential — we run it sequentially and price it at Threads-way
// parallelism bounded by the batch length.
func (e *CycladesEngine) RunEpoch(w []float64) float64 {
	if e.batches == nil {
		e.schedule()
	}
	scr := e.Model.NewScratch()
	if cw := e.standaloneWorker(); cw != nil {
		capt := &captureUpdater{}
		for _, batch := range e.batches {
			for _, i := range batch {
				capt.reset()
				e.Model.SGDStep(cw.View(w), e.Data, i, e.Step, capt, scr)
				applyFate(cw.Fate(), model.RawUpdater{}, w, capt)
				cw.Step()
			}
		}
	} else {
		for _, batch := range e.batches {
			for _, i := range batch {
				e.Model.SGDStep(w, e.Data, i, e.Step, model.RawUpdater{}, scr)
			}
		}
	}
	base, barriers := e.epochCost()
	if e.Chaos.Enabled() {
		// Per-batch barriers wait for the straggler's static share: the
		// whole epoch stretches by the synchronous factor, charged to the
		// barrier phase.
		barriers += (e.Chaos.Plan.SyncSlowdown() - 1) * (base + barriers)
	}
	rec, _ := e.recorder()
	rec.Phase(obs.PhaseGradient, base)
	rec.Phase(obs.PhaseBarrier, barriers)
	rec.Add(obs.CounterBatches, int64(len(e.batches)))
	rec.Add(obs.CounterWorkerUpdates, int64(e.Data.N()))
	e.closeStreams()
	return base + barriers
}

// epochCost prices the epoch: per batch, work parallelises over
// min(Threads, batch length) threads with no coherence penalty (that is the
// whole point), plus a per-batch barrier; the two parts are returned
// separately for phase attribution and sum to the epoch seconds.
func (e *CycladesEngine) epochCost() (base, barriers float64) {
	scale := costScale(e.CostScale)
	n := float64(e.Data.N()) * scale
	var avgSupport float64
	for i := 0; i < e.Data.N(); i++ {
		avgSupport += float64(e.Model.GradSupport(e.Data, i))
	}
	avgSupport /= float64(e.Data.N())
	flops := n * avgSupport * 4
	bytes := n*avgSupport*8*2 + float64(e.Data.X.SparseBytes())*scale
	ws := e.Data.X.SparseBytes() + int64(e.Model.NumParams()*8)

	// Effective parallelism is capped by the mean batch length.
	par := max(1, min(float64(e.Threads), e.stats.MeanBatchLen))
	base = e.Cost.StreamTime(ws, int64(bytes), flops, int(par))
	// Barrier per batch (threads synchronise): ~2us each at paper scale.
	barriers = float64(e.stats.Batches) * scale * 2e-6
	return base, barriers
}

var _ Engine = (*CycladesEngine)(nil)
