package core

import (
	"math/rand"
	"runtime"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/pool"
)

// The engines differ in their update discipline, not in how a recorder, a
// fault controller, a worker pool or a shuffle seed reaches them. That
// plumbing lives here once; an engine embeds exactly the pieces it honours,
// so implementing Instrumented, ChaosHost or Seeded is a statement about what
// its epoch actually consults (SyncEngine and HogbatchEngine draw nothing
// random and embed no shuffle).

// hooks carries the recorder and the fault controller of one engine.
type hooks struct {
	// Rec receives the engine's per-epoch phase timings, counters and
	// observations (the engine's type comment says which); nil leaves it
	// dark.
	Rec obs.Recorder
	// Chaos, when enabled, runs epochs under the fault-injection controller
	// (the engine's type comment says how a plan maps onto it); nil restores
	// the healthy fast paths.
	Chaos *chaos.Controller

	streams []*chaos.Stream // opened this epoch, flushed by closeStreams
}

// SetRecorder implements Instrumented.
func (h *hooks) SetRecorder(r obs.Recorder) { h.Rec = r }

// SetChaos implements ChaosHost.
func (h *hooks) SetChaos(c *chaos.Controller) { h.Chaos = c }

// recorder returns the attached recorder (obs.Nop when dark, so callers may
// emit unconditionally) and whether anything listens — the guard for
// instrumentation work that is not scalar-cheap.
func (h *hooks) recorder() (obs.Recorder, bool) {
	rec := obs.Or(h.Rec)
	return rec, obs.Enabled(rec)
}

// openStreams hands out this epoch's injector streams for workers 0..k-1, or
// nil when no fault plan is active (a detached or schedule-only controller
// injects nothing).
func (h *hooks) openStreams(k int) []*chaos.Stream {
	h.streams = h.streams[:0]
	if h.Chaos == nil || !h.Chaos.Plan.Active() {
		return nil
	}
	in := h.Chaos.Injector()
	for r := 0; r < k; r++ {
		h.streams = append(h.streams, in.Worker(r))
	}
	return h.streams
}

// standaloneWorker is openStreams for the engines that drive one serial or
// simulator-paced stream themselves: worker 0's chaos handle (fates,
// staleness views), or the healthy nil worker without an enabled controller.
// It is the epoch's only worker, so a straggler plan slows it by the full
// factor (AsyncSlowdown(1) = F) unless the engine models more peers.
func (h *hooks) standaloneWorker() *chaos.Worker {
	h.streams = h.streams[:0]
	if !h.Chaos.Enabled() {
		return nil
	}
	h.Chaos.Workers = 1
	cw := h.Chaos.StandaloneWorker(0)
	h.streams = append(h.streams, cw.Stream)
	return cw
}

// chaosWorkers is how many worker bodies Controller.Run gets for an epoch of n
// work items: the modeled thread count on the virtual-time scheduler, capped
// by the host's cores when the bodies race for real (always, without a
// controller), and within [1, n].
func (h *hooks) chaosWorkers(threads, n int) int {
	if h.Chaos == nil || !h.Chaos.Sequential {
		threads = min(threads, runtime.GOMAXPROCS(0))
	}
	return max(1, min(threads, n))
}

// faultDrop returns the simulator's per-item drop hook drawing fates from s,
// or nil when the plan drops nothing (the stream is then never consulted).
func (h *hooks) faultDrop(s *chaos.Stream) func(item int) bool {
	if s == nil || h.Chaos.Plan.DropFrac <= 0 {
		return nil
	}
	return func(int) bool { return s.Fate() == chaos.FateDrop }
}

// closeStreams ends the epoch's fault accounting: the opened streams fold
// their tallies into the injector, and the injector's counts (whoever
// tallied them — Controller.Run flushes its own workers) drain to the
// recorder.
func (h *hooks) closeStreams() {
	for _, s := range h.streams {
		s.Flush()
	}
	h.streams = h.streams[:0]
	h.Chaos.Drain(h.Rec)
}

// poolHooks is hooks for the engines that dispatch on the persistent worker
// pool.
type poolHooks struct {
	hooks
	// Pool overrides the pool the engine dispatches on (nil = the shared
	// process pool). Tests inject private pools.
	Pool *pool.Pool
}

// workerPool resolves the dispatch pool.
func (h *poolHooks) workerPool() *pool.Pool {
	if h.Pool != nil {
		return h.Pool
	}
	return pool.Default()
}

// costScale applies the default of the engines' CostScale knobs: unset (or
// nonsensical) means no scaling.
func costScale(s float64) float64 {
	if s > 0 {
		return s
	}
	return 1
}

// defaultShuffleSeed seeds every constructor's shuffle stream, so an engine
// nobody reseeds is deterministic where its execution is.
const defaultShuffleSeed = 99

// shuffle is the reseedable stochastic stream of an engine: the epoch
// visiting order and anything else the engine draws from rng.
type shuffle struct {
	rng  *rand.Rand
	perm []int
}

func newShuffle() shuffle {
	return shuffle{rng: rand.New(rand.NewSource(defaultShuffleSeed))}
}

// SetShuffleSeed implements Seeded.
func (s *shuffle) SetShuffleSeed(seed int64) {
	s.rng = rand.New(rand.NewSource(seed))
}

// fill builds the identity permutation over n examples on first use and
// reports whether it just did — engines hang their one-time set-up on it.
func (s *shuffle) fill(n int) bool {
	if s.perm != nil {
		return false
	}
	s.perm = make([]int, n)
	for i := range s.perm {
		s.perm[i] = i
	}
	return true
}

// reshuffle draws the next epoch's visiting order in place.
func (s *shuffle) reshuffle() {
	s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
}
