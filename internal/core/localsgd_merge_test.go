package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
)

// writeLog is the reference's own recording updater: a plain store plus a
// flag per component written since the flags were last cleared.
type writeLog struct{ written []bool }

func (l *writeLog) Add(w []float64, i int, delta float64) {
	w[i] += delta
	l.written[i] = true
}

// refLocalSGD is Local SGD as a plain loop, sharing no code with the engine:
// private slices, replicas stepped one after another, and at each barrier a
// serial mean — replicas summed in ascending order from 0.0, divided by K —
// over exactly the components some replica wrote since the last barrier that
// published. plan, when active, replays the engine's round fates from the
// same per-replica streams: a round with a receive weight other than 1 folds
// every component with the weighted serial mean, a round with every
// contribution dropped publishes nothing. carry says whether that round's
// writes stay pending for the next barrier (the behaviour under test) or are
// forgotten.
type refLocalSGD struct {
	m         model.Model
	ds        *data.Dataset
	step      float64
	k, h      int
	plan      chaos.Plan
	chaosSeed int64
	carry     bool

	rng  *rand.Rand
	perm []int
	// lostRounds counts all-dropped rounds that were followed by a
	// publishing round in the same epoch; merged counts the components the
	// barriers averaged (every component on a weighted round).
	lostRounds int
	merged     int64
}

func newRefLocalSGD(m model.Model, ds *data.Dataset, step float64, k, h int, seed int64) *refLocalSGD {
	perm := make([]int, ds.N())
	for i := range perm {
		perm[i] = i
	}
	return &refLocalSGD{m: m, ds: ds, step: step, k: k, h: h, carry: true,
		rng: rand.New(rand.NewSource(seed)), perm: perm}
}

func (e *refLocalSGD) runEpoch(w []float64) {
	n, k := len(e.perm), e.k
	e.rng.Shuffle(n, func(i, j int) { e.perm[i], e.perm[j] = e.perm[j], e.perm[i] })
	reps := make([][]float64, k)
	scrs := make([]model.Scratch, k)
	var streams []*chaos.Stream
	for r := range reps {
		reps[r] = append([]float64(nil), w...)
		scrs[r] = e.m.NewScratch()
		if e.plan.Active() {
			streams = append(streams, chaos.NewInjector(e.plan, e.chaosSeed).Worker(r))
		}
	}
	log := &writeLog{written: make([]bool, len(w))}
	wgt := make([]float64, k)
	pendingLost := 0
	for off := 0; ; off += e.h {
		stepped := false
		wsum, weighted := 0.0, false
		for r := 0; r < k; r++ {
			lo, hi := r*n/k+off, (r+1)*n/k
			if lo+e.h < hi {
				hi = lo + e.h
			}
			wgt[r] = 1
			if lo < hi {
				stepped = true
				for _, i := range e.perm[lo:hi] {
					e.m.SGDStep(reps[r], e.ds, i, e.step, log, scrs[r])
				}
				if streams != nil {
					switch streams[r].Fate() {
					case chaos.FateDrop:
						wgt[r], weighted = 0, true
					case chaos.FateDup:
						wgt[r], weighted = 2, true
					}
				}
			}
			wsum += wgt[r]
		}
		if !stepped {
			return
		}
		if wsum == 0 {
			pendingLost++
			if !e.carry {
				clear(log.written)
			}
			continue
		}
		e.lostRounds += pendingLost
		pendingLost = 0
		if weighted {
			copy(w, serialMean(reps, wgt))
			for r := range reps {
				copy(reps[r], w)
			}
			clear(log.written)
			e.merged += int64(len(w))
			continue
		}
		for j, wr := range log.written {
			if !wr {
				continue
			}
			e.merged++
			s := 0.0
			for _, rep := range reps {
				s += rep[j]
			}
			w[j] = s / float64(k)
			for _, rep := range reps {
				rep[j] = w[j]
			}
			log.written[j] = false
		}
	}
}

// expectVectorsMatch compares bit for bit when tol is 0, else within tol
// relative to the vector's largest magnitude (a component that cancelled to
// nearly zero carries the rounding noise of the O(1) values it came from).
func expectVectorsMatch(t *testing.T, label string, got, want []float64, tol float64) {
	t.Helper()
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for j := range want {
		if tol == 0 {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: component %d differs: %v vs %v", label, j, got[j], want[j])
			}
			continue
		}
		if d := math.Abs(got[j] - want[j]); d > tol*scale {
			t.Fatalf("%s: component %d off by %g of the vector's scale %g: %v vs %v", label, j, d/scale, scale, got[j], want[j])
		}
	}
}

// One independent reference, three models, both data shapes: the engine must
// reproduce the plain loop bit for bit at every K (the two share the
// per-component arithmetic, nothing else), and the merged-components counter
// must equal the number of components the reference averaged — d per round on
// dense data, a sliver of that on real-sim. K = 1 must also be sequential SGD
// over the same shuffle (the degenerate-setting oracle).
func TestLocalSGDMatchesPlainReference(t *testing.T) {
	sparseDS, _ := smallDataset(t, "real-sim", 240)
	denseDS, denseSpec := smallDataset(t, "covtype", 240)
	cases := []struct {
		name string
		m    model.Model
		ds   *data.Dataset
		step float64
		// sparse: a round of K·H ≤ 128 rows writes under a quarter of the
		// model. full: every round writes all of it (not SVM, where a round
		// that violated no margin writes nothing).
		sparse, full bool
	}{
		{"lr/real-sim", model.NewLR(sparseDS.D()), sparseDS, 0.5, true, false},
		{"svm/real-sim", model.NewSVM(sparseDS.D()), sparseDS, 0.5, true, false},
		{"lr/covtype", model.NewLR(denseDS.D()), denseDS, 0.05, false, true},
		{"svm/covtype", model.NewSVM(denseDS.D()), denseDS, 0.05, false, false},
		{"mlp/covtype", model.NewMLPFor(denseSpec), denseDS, 0.05, false, true},
	}
	const epochs = 3
	for _, c := range cases {
		for _, k := range []int{1, 2, 3, 4, 8} {
			for _, h := range []int{1, 16, (c.ds.N() + k - 1) / k} {
				c, k, h := c, k, h
				t.Run(fmt.Sprintf("%s/K%d/H%d", c.name, k, h), func(t *testing.T) {
					e := NewLocalSGD(c.m, c.ds, c.step, k, h)
					e.SetShuffleSeed(7)
					rec := &countRec{}
					e.SetRecorder(rec)
					ref := newRefLocalSGD(c.m, c.ds, c.step, k, h, 7)
					got, want := c.m.InitParams(3), c.m.InitParams(3)
					for ep := 0; ep < epochs; ep++ {
						e.RunEpoch(got)
						ref.runEpoch(want)
					}
					expectVectorsMatch(t, "engine vs plain-loop reference", got, want, 0)

					rounds, merged := rec.counts[obs.CounterLocalRounds], rec.counts[obs.CounterLocalMergedComponents]
					d := int64(len(got))
					if merged != ref.merged {
						t.Errorf("counter says %d components merged, the reference averaged %d", merged, ref.merged)
					}
					if c.sparse && h <= 16 && merged*4 > rounds*d {
						t.Errorf("merged %d components over %d rounds of d=%d: not a sparse configuration", merged, rounds, d)
					}
					if c.full && merged != rounds*d {
						t.Errorf("merged %d components over %d rounds of d=%d: a dense round writes everything", merged, rounds, d)
					}

					if k == 1 {
						seq := c.m.InitParams(3)
						rng := rand.New(rand.NewSource(7))
						perm := make([]int, c.ds.N())
						for i := range perm {
							perm[i] = i
						}
						scr := c.m.NewScratch()
						for ep := 0; ep < epochs; ep++ {
							rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
							for _, i := range perm {
								c.m.SGDStep(seq, c.ds, i, c.step, model.RawUpdater{}, scr)
							}
						}
						expectVectorsMatch(t, "K=1 vs sequential SGD", got, seq, 0)
					}
				})
			}
		}
	}
}

// The barrier must leave alone what the round did not write: after any
// healthy round every component outside the round's write set holds its
// pre-round bits in the published vector and in every replica, at every K —
// including K ∈ {3, 8}, where ((0+x)+x+…+x)/K does not return x, so a barrier
// that folded every component would move them by an ulp per round. The rounds
// are driven by hand (the engine's own step task and merge) so each one can
// be checked; the write set is taken from the stepped rows' supports, not
// from the engine's recorders.
func TestLocalMergeLeavesUntouchedComponents(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	sparseDS, _ := smallDataset(t, "real-sim", 400)
	w8a, w8aSpec := smallDataset(t, "w8a", 400)
	cases := []struct {
		name string
		m    model.Model
		ds   *data.Dataset
		h    int
	}{
		{"lr/real-sim/H4", model.NewLR(sparseDS.D()), sparseDS, 4},
		{"svm/real-sim/H50", model.NewSVM(sparseDS.D()), sparseDS, 50},
		{"mlp/w8a/H4", model.NewMLPFor(w8aSpec), w8a, 4}, // sparse input layer, dense upper layers
	}
	for _, c := range cases {
		for _, k := range []int{1, 2, 3, 4, 8} {
			e := NewLocalSGD(c.m, c.ds, 0.5, k, c.h)
			e.Pool = p
			e.prepare()
			// Random nonzero start: a zero component would survive any fold.
			rng := rand.New(rand.NewSource(int64(k)))
			w := make([]float64, c.m.NumParams())
			for j := range w {
				w[j] = rng.NormFloat64()
			}
			for r := range e.reps {
				copy(e.reps[r], w)
			}
			e.newRound()
			before := make([]float64, len(w))
			inSet := make([]bool, len(w))
			mlp, _ := c.m.(*model.MLP)
			for off := 0; e.segLen(k-1, off) > 0; off += c.h { // the last shard is never the shorter one
				copy(before, w)
				clear(inSet)
				for r := 0; r < k; r++ {
					start := e.bounds[r] + off
					for _, i := range e.perm[start : start+e.segLen(r, off)] {
						cols, _ := c.ds.X.Row(i)
						if mlp == nil {
							for _, col := range cols {
								inSet[col] = true
							}
							continue
						}
						// MLP: every unit's weight on a present input, and
						// everything past the input weights.
						in, h1 := mlp.Widths[0], mlp.Widths[1]
						for u := 0; u < h1; u++ {
							for _, col := range cols {
								inSet[u*in+int(col)] = true
							}
						}
						for j := in * h1; j < len(w); j++ {
							inSet[j] = true
						}
					}
				}
				e.stepT = localStepTask{e: e, off: off}
				p.Run(k, k, &e.stepT)
				e.merge(w)
				e.newRound()
				for j := range w {
					if inSet[j] {
						continue
					}
					if math.Float64bits(w[j]) != math.Float64bits(before[j]) {
						t.Fatalf("%s K=%d round at %d: published component %d outside the write set moved: %v -> %v", c.name, k, off, j, before[j], w[j])
					}
					for r := range e.reps {
						if math.Float64bits(e.reps[r][j]) != math.Float64bits(before[j]) {
							t.Fatalf("%s K=%d round at %d: replica %d component %d outside the write set moved: %v -> %v", c.name, k, off, r, j, before[j], e.reps[r][j])
						}
					}
				}
			}
		}
	}
}

// Chaos carries write sets across a round that published nothing: when every
// replica's contribution is dropped the replicas keep their local progress,
// so the next publishing round must average what was written in both. The
// reference replays the same fates; a reference that forgets the lost round's
// writes must disagree, which is what makes the agreement mean something.
func TestLocalSGDChaosCarriesWriteSetsAcrossLostRound(t *testing.T) {
	ds, _ := smallDataset(t, "real-sim", 400)
	m := model.NewLR(ds.D())
	plan := chaos.Plan{Name: "half-dropped", DropFrac: 0.5}
	const k, h, seed, chaosSeed = 2, 4, 11, 5
	run := func(carry bool) ([]float64, int) {
		ref := newRefLocalSGD(m, ds, 0.5, k, h, seed)
		ref.plan, ref.chaosSeed, ref.carry = plan, chaosSeed, carry
		w := m.InitParams(1)
		for ep := 0; ep < 2; ep++ {
			ref.runEpoch(w)
		}
		return w, ref.lostRounds
	}
	want, lost := run(true)
	if lost == 0 {
		t.Fatal("the plan produced no all-dropped round followed by a publishing one; pick another seed")
	}
	forgetful, _ := run(false)

	e := NewLocalSGD(m, ds, 0.5, k, h)
	e.SetShuffleSeed(seed)
	InjectChaos(e, chaos.New(plan, chaosSeed))
	got := m.InitParams(1)
	for ep := 0; ep < 2; ep++ {
		e.RunEpoch(got)
	}
	expectVectorsMatch(t, "engine vs fate-replaying reference", got, want, 0)
	same := true
	for j := range want {
		if want[j] != forgetful[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forgetting the lost rounds' writes changed nothing: the scenario does not exercise the carry")
	}
}

// The sparse configuration's steady state allocates nothing: the write-set
// lists are sized once, and emptying them is a stamp bump.
func TestLocalSGDEpochAllocatesNothing(t *testing.T) {
	ds, _ := smallDataset(t, "real-sim", 400)
	m := model.NewLR(ds.D())
	e := NewLocalSGD(m, ds, 0.5, 2, 16)
	rec := &countRec{}
	e.SetRecorder(rec)
	w := m.InitParams(1)
	e.RunEpoch(w)
	e.RunEpoch(w)
	if merged, rounds := rec.counts[obs.CounterLocalMergedComponents], rec.counts[obs.CounterLocalRounds]; merged >= rounds*int64(len(w)) {
		t.Fatalf("merged %d components over %d rounds of d=%d: not the sparse configuration", merged, rounds, len(w))
	}
	if allocs := testing.AllocsPerRun(5, func() { e.RunEpoch(w) }); allocs != 0 {
		t.Fatalf("RunEpoch allocates %v times per epoch in steady state, want 0", allocs)
	}
}
