package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/race"
)

// forceProcs pins GOMAXPROCS so a Threads=n Hogwild engine actually takes
// the concurrent path on a small CI host (otherwise it falls back to the
// deterministic emulation, which ignores striping by design).
func forceProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestStripedSequentialMatchesUnstriped: with one thread the striped epoch
// applies exactly the same per-component sums as... not the unstriped one —
// updates inside a window land against a stale w, so the trajectories are
// intentionally different. What must hold: the striped run still converges,
// every update lands (none lost to the buffer), and the epoch is
// deterministic under a fixed seed.
func TestStripedSequentialDeterministic(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 300)
	run := func() []float64 {
		m := model.NewLR(ds.D())
		e := NewHogwild(m, ds, 0.3, 1)
		e.StripeWindow = 64
		e.SetShuffleSeed(17)
		w := m.InitParams(1)
		for ep := 0; ep < 3; ep++ {
			e.RunEpoch(w)
		}
		return w
	}
	a, b := run(), run()
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("striped sequential epoch not deterministic at w[%d]: %v vs %v", j, a[j], b[j])
		}
	}
}

func TestStripedHogwildConverges(t *testing.T) {
	forceProcs(t, 4)
	for _, threads := range []int{1, 4} {
		if threads > 1 && race.Enabled {
			// Concurrent Hogwild over overlapping supports mixes plain
			// gradient reads with concurrent component writes — racy by
			// design; the -race coverage of the striped concurrent path is
			// TestStripedConcurrentEpochRace on disjoint supports.
			continue
		}
		ds, _ := smallDataset(t, "rcv1", 400)
		m := model.NewLR(ds.D())
		e := NewHogwild(m, ds, 0.5, threads)
		e.Updater = model.AtomicUpdater{}
		e.StripeWindow = 128
		w := m.InitParams(1)
		before := model.MeanLoss(m, w, ds)
		for ep := 0; ep < 8; ep++ {
			e.RunEpoch(w)
		}
		after := model.MeanLoss(m, w, ds)
		if !(after < before*0.7) || math.IsNaN(after) {
			t.Errorf("threads=%d: striped Hogwild loss %v -> %v (no progress)", threads, before, after)
		}
		flushes, coalesced, applied := e.StripeCounters()
		if flushes == 0 || applied == 0 {
			t.Errorf("threads=%d: stripe counters silent: flushes=%d applied=%d", threads, flushes, applied)
		}
		if coalesced == 0 {
			t.Errorf("threads=%d: no coalescing on rcv1's hot columns", threads)
		}
	}
}

// TestStripedNoUpdateOutlivesEpoch: after RunEpoch returns, no updates are
// still buffered — every stripe buffer flushed its residue.
func TestStripedNoUpdateOutlivesEpoch(t *testing.T) {
	forceProcs(t, 4)
	ds := diagonalDataset(t, 200) // disjoint supports: -race-clean concurrency
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.3, 4)
	e.StripeWindow = 512 // bigger than any segment: residue flush does the work
	w := m.InitParams(1)
	e.RunEpoch(w)
	_, _, applied := e.StripeCounters()
	for _, sb := range e.stripes {
		if sb.Pending() != 0 {
			t.Fatalf("stripe buffer left %d pending updates after the epoch", sb.Pending())
		}
	}
	if applied == 0 {
		t.Fatal("no updates applied through the stripe buffers")
	}
}

// TestStripedCountersReachRecorder: the per-epoch stripe deltas land on the
// obs counters, the default window coalesces a real share of w8a's hot
// columns, and the warm striped epoch allocates nothing.
func TestStripedCountersReachRecorder(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 200)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.3, 1)
	e.Updater = &model.CountingAtomicUpdater{}
	e.StripeWindow = model.DefaultStripeWindow
	w := m.InitParams(1)
	r := runInstrumented(t, e, w, 2)
	if r.Counter(obs.CounterStripeFlushes) == 0 {
		t.Error("stripe_flushes counter not recorded")
	}
	if r.Counter(obs.CounterStripeCoalesced) == 0 {
		t.Error("stripe_coalesced counter not recorded")
	}
	flushes, coalesced, applied := e.StripeCounters()
	if r.Counter(obs.CounterStripeFlushes) != flushes || r.Counter(obs.CounterStripeCoalesced) != coalesced {
		t.Errorf("recorded %d/%d != engine counters %d/%d",
			r.Counter(obs.CounterStripeFlushes), r.Counter(obs.CounterStripeCoalesced), flushes, coalesced)
	}
	// The coalesced fraction is a function of the dataset's hot columns and
	// the window only, so the floor holds on any host: at least 5% of the
	// component updates must merge into an earlier one of the same window.
	if frac := float64(coalesced) / float64(coalesced+applied); frac < 0.05 {
		t.Errorf("coalesced fraction %.3f < 0.05 (%d of %d updates)", frac, coalesced, coalesced+applied)
	}
	// It must be the sequential engine: AllocsPerRun pins GOMAXPROCS to 1,
	// which would push a multi-thread engine onto the emulated path (which
	// ignores striping) and measure the wrong thing. The sequential engine
	// runs the same StripeBuffer Add/Flush hot loop; the concurrent dispatch
	// around it is pinned alloc-free by internal/pool's tests.
	Instrument(e, nil)
	if allocs := testing.AllocsPerRun(3, func() { e.RunEpoch(w) }); allocs != 0 {
		t.Errorf("warm striped epoch allocates %.0f times, want 0", allocs)
	}
}

// TestStripedConcurrentEpochRace hammers the striped concurrent path under
// the race detector: repeated genuinely-concurrent epochs with 4 workers on
// a private pool, each segment owning its stripe buffer. The dataset has
// disjoint gradient supports (the established -race pattern here), so the
// detector's findings are about the striping machinery — buffer ownership,
// flush-before-barrier, counter reads between epochs — not the model
// vector's by-design Hogwild races. A second engine shares the pool to
// stress cross-engine dispatch interleaving.
func TestStripedConcurrentEpochRace(t *testing.T) {
	forceProcs(t, 4)
	ds := diagonalDataset(t, 400)
	p := pool.New(4)
	defer p.Close()
	newEngine := func() (*HogwildEngine, []float64) {
		m := model.NewLR(ds.D())
		e := NewHogwild(m, ds, 0.3, 4)
		e.Updater = &model.CountingAtomicUpdater{}
		e.StripeWindow = 32
		e.Pool = p
		return e, m.InitParams(1)
	}
	e1, w1 := newEngine()
	e2, w2 := newEngine()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for ep := 0; ep < 5; ep++ {
			e1.RunEpoch(w1)
			e1.StripeCounters() // between-epoch counter read, the obs pattern
		}
	}()
	go func() {
		defer wg.Done()
		for ep := 0; ep < 5; ep++ {
			e2.RunEpoch(w2)
		}
	}()
	wg.Wait()
	for _, w := range [][]float64{w1, w2} {
		for j := range w {
			if math.IsNaN(w[j]) {
				t.Fatalf("w[%d] is NaN after striped concurrent epochs", j)
			}
		}
	}
	if _, _, applied := e1.StripeCounters(); applied == 0 {
		t.Fatal("striped concurrent epochs issued no updates")
	}
}

// TestStripedWithQuantizedUpdater: the stripe buffer composes with the
// Buckwild low-precision base — coalesced deltas land through the quantised
// grid, and the run stays finite.
func TestStripedWithQuantizedUpdater(t *testing.T) {
	ds, _ := smallDataset(t, "w8a", 200)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.3, 1)
	e.Updater = model.NewStochasticQuantized(16, 5)
	e.StripeWindow = 64
	w := m.InitParams(1)
	before := model.MeanLoss(m, w, ds)
	for ep := 0; ep < 5; ep++ {
		e.RunEpoch(w)
	}
	after := model.MeanLoss(m, w, ds)
	if math.IsNaN(after) || after >= before {
		t.Errorf("striped+quantised loss %v -> %v", before, after)
	}
}
