package ps

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
)

// Default tuning of the modeled cluster. Time is counted in abstract work
// units — one example gradient costs one unit, one pull or push round trip
// costs DefaultRTT units — and converted to modeled seconds by
// DefaultSecPerUnit, the same virtual-time style as the chaos scheduler.
// DefaultRTT = 50 makes a 16-example batch against 4 shards spend ~96% of
// its time on the wire, which is the regime where the sync/async transport
// contrast matters.
const (
	DefaultBatch      = 16
	DefaultRTT        = 50.0
	DefaultSecPerUnit = 1e-6
)

// Engine drives the parameter-server tier as one more core.Engine
// configuration: Workers workers repeatedly pull every shard, compute the
// summed gradient of a small batch against their pulled (possibly stale,
// possibly cached) view, and push per-shard contributions back through
// their Transport.
//
//   - ModeSync advances in barriered rounds of Workers*Batch examples: the
//     server accumulates the round's pushes and applies one averaged update
//     at CloseRound. The round costs the slowest worker's pull+compute+push
//     time; Chaos.Deadline caps that wait at Deadline times the healthy
//     round, excluding late workers' contributions (received-fraction
//     scaling, counted as shortfall) — BSP with the PR-4 deadline rule,
//     across a transport.
//   - ModeAsync claims batches dynamically off a shared counter and the
//     server applies each push on arrival, tallying staleness; a straggler
//     simply claims fewer batches, so the epoch stretches by the plan's
//     async slowdown rather than the straggler's full factor.
//
// The sync path runs single-threaded in worker order (deterministic: it
// holds a golden). The async path writes its worker loop once: healthy it
// races real goroutines with the nil (healthy) chaos.Worker, and under an
// enabled controller the same loop runs in the controller's regime
// (envelope-gated).
type Engine struct {
	Mode  Mode
	Model model.Model
	Data  *data.Dataset
	Step  float64
	// Workers is the modeled cluster's worker count.
	Workers int
	// Shards is the requested shard count (clamped to the stripe count).
	Shards int
	// Batch is the examples per pull-compute-push cycle (DefaultBatch).
	Batch int
	// Rec receives phase timings and the ps/chaos counters.
	Rec obs.Recorder
	// Chaos, when enabled, threads the fault plan through every worker's
	// transport (partitions, drops, dups) and paces stragglers.
	Chaos *chaos.Controller
	// Dial, when set, supplies worker k's transport (e.g. an HTTPTransport
	// against a remote Handler) and the caller owns transport lifetime.
	// Nil uses an engine-managed ChanTransport whose dispatcher runs only
	// while an epoch does.
	Dial func(worker int) Transport

	sh  Sharding
	srv *Server
	ct  *ChanTransport
	rng *rand.Rand

	perm     []int
	ws       []*workerState
	builtFor *chaos.Controller
	built    bool
}

// workerState is one worker's private half of the protocol: its transport,
// its cached view of the full model, the shard versions that view reflects,
// and its gradient/scratch buffers. Only worker k's goroutine touches it.
type workerState struct {
	k     int
	t     Transport
	ft    *FaultTransport // non-nil when chaos is threaded through t
	cache []float64
	basis []int64
	grad  []float64
	scr   model.Scratch
	seq   int64 // monotonic push sequence, persists across epochs
}

// NewEngine builds a parameter-server engine with default batch/RTT tuning.
func NewEngine(mode Mode, m model.Model, ds *data.Dataset, step float64, workers, shards int) *Engine {
	if workers < 1 {
		workers = 1
	}
	if shards < 1 {
		shards = 1
	}
	sh, err := NewSharding(m.NumParams(), shards)
	if err != nil {
		panic(err) // NumParams > 0 and shards > 0: unreachable
	}
	return &Engine{
		Mode:    mode,
		Model:   m,
		Data:    ds,
		Step:    step,
		Workers: workers,
		Shards:  shards,
		sh:      sh,
		rng:     rand.New(rand.NewSource(99)),
	}
}

// Name implements core.Engine, e.g. "ps-sync/cluster(s4w4)".
func (e *Engine) Name() string {
	return fmt.Sprintf("ps-%s/cluster(s%dw%d)", e.Mode, e.sh.NumShards(), e.Workers)
}

// SetRecorder implements core.Instrumented.
func (e *Engine) SetRecorder(r obs.Recorder) { e.Rec = r }

// SetChaos implements core.ChaosHost.
func (e *Engine) SetChaos(c *chaos.Controller) { e.Chaos = c }

// SetShuffleSeed implements core.Seeded.
func (e *Engine) SetShuffleSeed(seed int64) {
	e.rng = rand.New(rand.NewSource(seed))
}

// Server exposes the engine's parameter server so callers can front it
// with an HTTPServer (set Dial before the first epoch to route the workers
// through it), read stats, or drive it directly in tests.
func (e *Engine) Server() *Server { e.prepareCore(); return e.srv }

// prepareCore builds the server and permutation once; worker transports are
// built separately (prepare) so Dial may be set after Server().
func (e *Engine) prepareCore() {
	if e.built {
		return
	}
	if e.Batch < 1 {
		e.Batch = DefaultBatch
	}
	e.perm = make([]int, e.Data.N())
	for i := range e.perm {
		e.perm[i] = i
	}
	e.srv = NewServer(e.Mode, e.sh, e.Step, e.Workers)
	e.built = true
}

// prepare builds the worker states, rebuilding the transports when the
// chaos controller changes.
func (e *Engine) prepare() {
	e.prepareCore()
	if e.ws == nil || e.builtFor != e.Chaos {
		if e.Dial == nil && e.ct == nil {
			e.ct = NewChanTransport(e.srv)
		}
		e.ws = make([]*workerState, e.Workers)
		dim := e.sh.Dim()
		for k := range e.ws {
			ws := &workerState{
				k:     k,
				cache: make([]float64, dim),
				basis: make([]int64, e.sh.NumShards()),
				grad:  make([]float64, dim),
				scr:   e.Model.NewScratch(),
			}
			if e.Dial != nil {
				ws.t = e.Dial(k)
			} else {
				ws.t = e.ct
			}
			if e.Chaos.Enabled() {
				ws.ft = NewFaultTransport(ws.t, e.Chaos.Injector(), k)
				ws.t = ws.ft
			}
			e.ws[k] = ws
		}
		e.builtFor = e.Chaos
	}
}

// initWorkers resets every worker's cached view to the epoch's starting
// vector (sequence numbers persist — dedupe horizons span epochs).
func (e *Engine) initWorkers(w []float64) {
	for _, ws := range e.ws {
		copy(ws.cache, w)
		for s := range ws.basis {
			ws.basis[s] = e.srv.Version(s)
		}
	}
}

// RunEpoch implements core.Engine: one pass over a fresh shuffle of the
// data through the parameter-server tier, returning modeled seconds.
func (e *Engine) RunEpoch(w []float64) float64 {
	e.prepare()
	e.rng.Shuffle(len(e.perm), func(i, j int) { e.perm[i], e.perm[j] = e.perm[j], e.perm[i] })
	if err := e.srv.Load(w); err != nil {
		panic(err)
	}
	e.initWorkers(w)
	if e.ct != nil {
		e.ct.Start()
	}
	var sec float64
	if e.Mode == ModeSync {
		sec = e.runSync()
	} else {
		sec = e.runAsync()
	}
	if e.ct != nil {
		e.ct.Stop()
	}
	if err := e.srv.Snapshot(w); err != nil {
		panic(err)
	}
	e.srv.Drain(e.Rec)
	if e.Chaos.Enabled() {
		for _, ws := range e.ws {
			if ws.ft != nil {
				ws.ft.Stream.Flush()
			}
		}
		e.Chaos.Drain(e.Rec)
	}
	return sec
}

// pullAll refreshes the worker's cached view of every shard. A failed pull
// (partition, or a transport fault) keeps the cached block and its old
// basis — the worker computes against stale parameters rather than
// stopping, which is exactly the staleness the server's counters measure.
func (e *Engine) pullAll(ws *workerState) {
	for s := 0; s < e.sh.NumShards(); s++ {
		rep, err := ws.t.Pull(s)
		if err != nil {
			continue
		}
		lo, _ := e.sh.Range(s)
		copy(ws.cache[lo:lo+len(rep.Params)], rep.Params)
		ws.basis[s] = rep.Version
	}
}

// gradRange computes the summed (unnormalised) gradient of perm[lo:hi]
// against the worker's cached view.
func (e *Engine) gradRange(ws *workerState, lo, hi int) {
	for j := range ws.grad {
		ws.grad[j] = 0
	}
	for _, i := range e.perm[lo:hi] {
		e.Model.AccumGrad(ws.cache, e.Data, i, 1, ws.grad, ws.scr)
	}
}

// pushAll sends the worker's per-shard gradient contributions. A transport
// error means the push was lost in flight; the tier is built to degrade
// gracefully under exactly that, so the worker moves on.
func (e *Engine) pushAll(ws *workerState, count int) {
	for s := 0; s < e.sh.NumShards(); s++ {
		lo, hi := e.sh.Range(s)
		ws.seq++
		req := PushRequest{
			Shard:  s,
			Worker: ws.k,
			Seq:    ws.seq,
			Basis:  ws.basis[s],
			Count:  count,
			Grad:   ws.grad[lo:hi],
		}
		ws.t.Push(req) //nolint:errcheck // a failed push is a lost push
	}
}

// runSync executes barriered rounds of Workers*Batch examples. Workers run
// sequentially in worker order (the path is deterministic and holds a
// golden); the modeled round time is the slowest worker's stretched
// pull+compute+push, capped at Chaos.Deadline times the healthy round when
// a deadline is set — a late worker's pushes are excluded and surface as
// shortfall through CloseRound.
func (e *Engine) runSync() float64 {
	n := len(e.perm)
	rtUnits := 2 * float64(e.sh.NumShards()) * DefaultRTT
	healthyRound := rtUnits + float64(e.Batch)
	capU := math.Inf(1)
	if e.Chaos.Enabled() && e.Chaos.Deadline >= 1 {
		capU = e.Chaos.Deadline * healthyRound
	}
	roundSize := e.Workers * e.Batch
	var totalU, gradU, updU float64
	var rounds, missingTotal int64
	for off := 0; off < n; off += roundSize {
		roundN := n - off
		if roundN > roundSize {
			roundN = roundSize
		}
		var roundMax float64
		maxB := 0
		for k := 0; k < e.Workers; k++ {
			lo := off + k*e.Batch
			if lo >= off+roundN {
				break
			}
			hi := lo + e.Batch
			if hi > off+roundN {
				hi = off + roundN
			}
			b := hi - lo
			if b > maxB {
				maxB = b
			}
			ws := e.ws[k]
			stretch := 1.0
			if ws.ft != nil {
				ws.ft.BeginRound()
				stretch = ws.ft.Stream.Cost()
			}
			cost := stretch * (rtUnits + float64(b))
			if cost > roundMax {
				roundMax = cost
			}
			e.pullAll(ws)
			e.gradRange(ws, lo, hi)
			if cost <= capU {
				e.pushAll(ws, b)
			}
		}
		if roundMax > capU {
			roundMax = capU
		}
		missing, err := e.srv.CloseRound(roundN)
		if err != nil {
			panic(err)
		}
		missingTotal += missing
		totalU += roundMax
		gradU += float64(maxB)
		updU += rtUnits
		rounds++
	}
	if missingTotal > 0 && e.Chaos.Enabled() {
		// Shortfall is counted in per-shard example contributions; divide
		// by the shard count to report whole missing examples, matching the
		// in-process sync engine's unit.
		e.Chaos.Injector().CountShortfall(missingTotal / int64(e.sh.NumShards()))
	}
	rec := obs.Or(e.Rec)
	rec.Phase(obs.PhaseGradient, gradU*DefaultSecPerUnit)
	rec.Phase(obs.PhaseUpdate, updU*DefaultSecPerUnit)
	rec.Phase(obs.PhaseBarrier, (totalU-gradU-updU)*DefaultSecPerUnit)
	rec.Add(obs.CounterBatches, rounds)
	rec.Add(obs.CounterWorkerUpdates, rounds)
	return totalU * DefaultSecPerUnit
}

// runAsync executes ceil(N/Batch) pull-compute-push claims dynamically off
// a shared counter: real goroutines with the healthy nil worker, the chaos
// controller's regime (virtual-time scheduler in sequential mode) when one
// is enabled. The modeled epoch is the balanced ideal — every claim's units
// spread over Workers — stretched by the controller's observed slowdown.
func (e *Engine) runAsync() float64 {
	n := len(e.perm)
	tasks := (n + e.Batch - 1) / e.Batch
	rtUnits := 2 * float64(e.sh.NumShards()) * DefaultRTT
	idealU := (float64(n) + float64(tasks)*rtUnits) / float64(e.Workers)
	var next atomic.Int64
	// Each claim is two scheduling steps — pull, then compute+push — so the
	// virtual-time scheduler interleaves other workers' applies into the
	// pull-to-push window. That window is where gradient staleness lives; a
	// single atomic turn per claim would model it away.
	claim := func(k int, cw *chaos.Worker) {
		ws := e.ws[k]
		for {
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			lo := t * e.Batch
			hi := min(lo+e.Batch, n)
			if ws.ft != nil {
				ws.ft.BeginRound()
			}
			e.pullAll(ws)
			cw.Step()
			e.gradRange(ws, lo, hi)
			e.pushAll(ws, hi-lo)
			cw.Step()
		}
	}
	slow := 1.0
	if e.Chaos.Enabled() {
		e.Chaos.Run(nil, e.Workers, claim)
		slow = e.Chaos.Slowdown()
	} else {
		// Healthy workers stay one goroutine each, the regime the ps-async
		// envelope was recorded on: a pool runs several workers per chunk
		// in turn once Workers exceeds its size.
		var wg sync.WaitGroup
		for k := 0; k < e.Workers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				claim(k, nil)
			}(k)
		}
		wg.Wait()
	}
	extraU := (slow - 1) * idealU
	rec := obs.Or(e.Rec)
	rec.Phase(obs.PhaseGradient, float64(n)/float64(e.Workers)*DefaultSecPerUnit)
	rec.Phase(obs.PhaseUpdate, float64(tasks)*rtUnits/float64(e.Workers)*DefaultSecPerUnit)
	if extraU > 0 {
		rec.Phase(obs.PhaseBarrier, extraU*DefaultSecPerUnit)
	}
	rec.Add(obs.CounterBatches, int64(tasks))
	rec.Add(obs.CounterWorkerUpdates, int64(tasks))
	return (idealU + extraU) * DefaultSecPerUnit
}
