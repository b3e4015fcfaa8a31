package chaos

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/pool"
)

func TestPlanCatalogue(t *testing.T) {
	for _, name := range PlanNames() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("plan %q has Name %q", name, p.Name)
		}
	}
	if _, err := Lookup("tsunami"); err == nil {
		t.Fatal("Lookup of unknown plan succeeded")
	}
	if p, _ := Lookup("none"); p.Active() {
		t.Error("plan none reports Active")
	}
	if p, _ := Lookup("storm"); !p.Active() {
		t.Error("plan storm reports inactive")
	}
}

func TestPlanScale(t *testing.T) {
	p := Plan{Stragglers: 1, StragglerFactor: 10, DropFrac: 0.01, DupFrac: 0.02, Staleness: 64}
	h := p.Scale(0)
	if h.Active() {
		t.Errorf("intensity 0 still active: %+v", h)
	}
	full := p.Scale(1)
	if full != p {
		t.Errorf("intensity 1 changed the plan: %+v", full)
	}
	half := p.Scale(0.5)
	if half.StragglerFactor != 5.5 || half.DropFrac != 0.005 || half.Staleness != 32 {
		t.Errorf("intensity 0.5: %+v", half)
	}
	over := p.Scale(1000)
	if over.DropFrac != 1 || over.DupFrac != 1 {
		t.Errorf("fractions not clamped: %+v", over)
	}
}

func TestSlowdownFormulas(t *testing.T) {
	p := Plan{Stragglers: 1, StragglerFactor: 10}
	// 1 of 56 workers at 10x barely stretches a dynamically balanced
	// async epoch, but stretches a barriered sync epoch by the factor.
	if got := p.AsyncSlowdown(56); got < 1.01 || got > 1.03 {
		t.Errorf("AsyncSlowdown(56) = %v, want ~1.017", got)
	}
	if got := p.SyncSlowdown(); got != 10 {
		t.Errorf("SyncSlowdown = %v, want 10", got)
	}
	if got := (Plan{}).AsyncSlowdown(56); got != 1 {
		t.Errorf("healthy AsyncSlowdown = %v", got)
	}
}

// TestInjectorStreamsDeterministic: the decision stream is a pure function
// of (seed, worker) — independent of other workers and replayable.
func TestInjectorStreamsDeterministic(t *testing.T) {
	plan := Plan{DropFrac: 0.2, DupFrac: 0.1}
	draw := func(seed int64, k, n int) []Fate {
		s := NewInjector(plan, seed).Worker(k)
		out := make([]Fate, n)
		for i := range out {
			out[i] = s.Fate()
		}
		return out
	}
	if !reflect.DeepEqual(draw(1, 3, 200), draw(1, 3, 200)) {
		t.Fatal("same (seed, worker) produced different fate streams")
	}
	if reflect.DeepEqual(draw(1, 3, 200), draw(2, 3, 200)) {
		t.Fatal("different seeds produced identical fate streams")
	}
	if reflect.DeepEqual(draw(1, 3, 200), draw(1, 4, 200)) {
		t.Fatal("different workers share one fate stream")
	}
}

func TestInjectorRates(t *testing.T) {
	plan := Plan{DropFrac: 0.05, DupFrac: 0.05}
	in := NewInjector(plan, 42)
	s := in.Worker(0)
	const n = 200000
	var drops, dups int
	for i := 0; i < n; i++ {
		switch s.Fate() {
		case FateDrop:
			drops++
		case FateDup:
			dups++
		}
	}
	for what, got := range map[string]int{"drops": drops, "dups": dups} {
		frac := float64(got) / n
		if math.Abs(frac-0.05) > 0.005 {
			t.Errorf("%s rate %.4f, want ~0.05", what, frac)
		}
	}
}

func TestControllerNilAndInert(t *testing.T) {
	var c *Controller
	if c.Enabled() {
		t.Error("nil controller enabled")
	}
	if c.Slowdown() != 1 {
		t.Error("nil controller slowdown != 1")
	}
	c.Drain(obs.Nop{}) // must not panic
	if New(Plan{}, 1).Enabled() {
		t.Error("healthy non-sequential controller enabled")
	}
	if !New(Plan{}, 1).withSequential().Enabled() {
		t.Error("sequential controller not enabled")
	}
}

func (c *Controller) withSequential() *Controller { c.Sequential = true; return c }

// TestNilWorkerIsHealthy: the nil *Worker reads the live vector, applies
// every update and paces nothing.
func TestNilWorkerIsHealthy(t *testing.T) {
	var w *Worker
	live := []float64{1, 2, 3}
	if v := w.View(live); &v[0] != &live[0] || len(v) != len(live) {
		t.Error("nil worker's View is not the live vector")
	}
	for i := 0; i < 3; i++ {
		if f := w.Fate(); f != FateApply {
			t.Fatalf("nil worker's Fate = %v, want FateApply", f)
		}
		w.Step() // must not panic
	}
}

// TestInertRunHandsOutNilWorkers: a nil or disabled controller runs each
// body exactly once, with the healthy nil worker, and records nothing.
func TestInertRunHandsOutNilWorkers(t *testing.T) {
	p := pool.New(2)
	defer p.Close()
	for name, c := range map[string]*Controller{"nil": nil, "disabled": {Workers: 7}} {
		const n = 5
		var calls [n]atomic.Int64
		var nonNil atomic.Int64
		c.Run(p, n, func(k int, w *Worker) {
			calls[k].Add(1)
			if w != nil {
				nonNil.Add(1)
			}
		})
		for k := range calls {
			if got := calls[k].Load(); got != 1 {
				t.Errorf("%s: body %d ran %d times, want 1", name, k, got)
			}
		}
		if nonNil.Load() != 0 {
			t.Errorf("%s: %d bodies got a non-nil worker", name, nonNil.Load())
		}
		if c != nil && c.Workers != 7 {
			t.Errorf("%s: Run changed Workers to %d", name, c.Workers)
		}
	}
}

// TestControllerSequentialSlowdown: dynamic claiming under the virtual-time
// scheduler reproduces the analytic async stretch.
func TestControllerSequentialSlowdown(t *testing.T) {
	plan := Plan{Stragglers: 1, StragglerFactor: 10}
	c := New(plan, 7)
	c.Sequential = true
	var next atomic.Int64
	const n, workers = 4000, 8
	shares := make([]int, workers)
	c.Run(nil, workers, func(k int, w *Worker) {
		for {
			if next.Add(1) > n {
				return
			}
			shares[k]++
			w.Step()
		}
	})
	want := plan.AsyncSlowdown(workers)
	if got := c.Slowdown(); math.Abs(got-want) > 0.05*want {
		t.Errorf("sequential slowdown %.4f, want ~%.4f", got, want)
	}
	// The straggler (worker 0) claimed ~1/10 of a healthy worker's share.
	healthy := float64(n-shares[0]) / float64(workers-1)
	if r := float64(shares[0]) / healthy; r < 0.05 || r > 0.2 {
		t.Errorf("straggler share ratio %.3f, want ~0.1 (shares %v)", r, shares)
	}
}

// TestControllerSSP: with a bound, no worker's progress may exceed the
// slowest worker's by more than bound (+1 for the in-flight update).
func TestControllerSSP(t *testing.T) {
	c := New(Plan{Stragglers: 1, StragglerFactor: 50}, 3)
	c.Sequential = true
	c.SSPBound = 4
	const perWorker, workers = 200, 4
	progress := make([]int, workers)
	maxLead := 0
	c.Run(nil, workers, func(k int, w *Worker) {
		for i := 0; i < perWorker; i++ {
			lead := progress[k]
			for _, p := range progress {
				if p < lead {
					lead = p
				}
			}
			if lead = progress[k] - lead; lead > maxLead {
				maxLead = lead
			}
			progress[k]++
			w.Step()
		}
	})
	if maxLead > c.SSPBound+1 {
		t.Errorf("a worker ran %d updates ahead under SSP bound %d", maxLead, c.SSPBound)
	}
	for k, p := range progress {
		if p != perWorker {
			t.Errorf("worker %d finished %d/%d updates", k, p, perWorker)
		}
	}
}

func TestWorkerViewStaleness(t *testing.T) {
	c := New(Plan{Staleness: 4}, 1)
	c.Sequential = true
	live := []float64{0}
	var staleSeen int
	c.Run(nil, 1, func(k int, w *Worker) {
		for i := 0; i < 12; i++ {
			v := w.View(live)
			if v[0] != live[0] {
				staleSeen++
				// The lag never exceeds the bound (refresh every 4 reads,
				// one live write per read).
				if live[0]-v[0] > 4 {
					t.Errorf("staleness %v exceeds bound 4", live[0]-v[0])
				}
			}
			live[0]++
			w.Step()
		}
	})
	if staleSeen == 0 {
		t.Error("bounded-staleness view never served a stale read")
	}
	// Healthy plan: View must be the live slice itself, no copies.
	c2 := New(Plan{}, 1)
	c2.Sequential = true
	c2.Run(nil, 1, func(k int, w *Worker) {
		if &w.View(live)[0] != &live[0] {
			t.Error("healthy View returned a copy")
		}
	})
}

func TestDrainCounters(t *testing.T) {
	plan := Plan{DropFrac: 1} // every update drops
	c := New(plan, 5)
	c.Sequential = true
	c.Run(nil, 2, func(k int, w *Worker) {
		for i := 0; i < 10; i++ {
			w.Fate()
			w.Step()
		}
	})
	rec := &captureRec{}
	c.Drain(rec)
	if rec.counts[obs.CounterChaosDrops] != 20 {
		t.Errorf("drained %d drops, want 20", rec.counts[obs.CounterChaosDrops])
	}
	// Drain resets.
	rec2 := &captureRec{}
	c.Drain(rec2)
	if rec2.counts[obs.CounterChaosDrops] != 0 {
		t.Errorf("second drain saw %d drops, want 0", rec2.counts[obs.CounterChaosDrops])
	}
}

// captureRec is a minimal Recorder capturing counter adds.
type captureRec struct {
	counts map[obs.Counter]int64
}

func (r *captureRec) Phase(obs.Phase, float64)    {}
func (r *captureRec) Observe(obs.Metric, float64) {}
func (r *captureRec) EndEpoch(float64)            {}
func (r *captureRec) Add(c obs.Counter, d int64) {
	if r.counts == nil {
		r.counts = make(map[obs.Counter]int64)
	}
	r.counts[c] += d
}

// TestControllerConcurrentMode smoke-tests the real-concurrency path: all
// work completes, fates stay deterministic per worker, slowdown falls back
// to the analytic formula.
func TestControllerConcurrentMode(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	plan := Plan{Stragglers: 1, StragglerFactor: 4, DropFrac: 0.5}
	c := New(plan, 9)
	var done [8]int64
	c.Run(p, 8, func(k int, w *Worker) {
		for i := 0; i < 50; i++ {
			w.Fate()
			w.Step()
			atomic.AddInt64(&done[k], 1)
		}
	})
	for k := range done {
		if done[k] != 50 {
			t.Errorf("worker %d did %d/50 steps", k, done[k])
		}
	}
	want := plan.AsyncSlowdown(8)
	if got := c.Slowdown(); got != want {
		t.Errorf("concurrent slowdown %v, want analytic %v", got, want)
	}
}
