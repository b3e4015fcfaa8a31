package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/serve"
)

// Load shapes of the serving stage.
const (
	closedCallers = 64    // closed loop: callers with one Predict in flight each
	openCallers   = 256   // open loop: goroutines that carry paced requests
	openRate      = 50000 // open loop: requests offered per second
	publishEvery  = 10 * time.Millisecond
	traceOneIn    = 64 // traced runs record one request in this many
)

// servedModel is what the serving stage checks responses against: the two
// weight vectors that get published, and for every corpus row its score
// under each, computed offline through the same Scorer the server uses.
type servedModel struct {
	m   *model.LR
	ds  *data.Dataset
	w   [2][]float64 // [0] = trained weights, [1] = weights part-way through training
	f   [2][]float64 // offline float scores per row
	tol [2][]float64 // int8 phase: allowed |score - float score| per row
}

func newServedModel(m *model.LR, ds *data.Dataset, wA, wB []float64) *servedModel {
	s := &servedModel{m: m, ds: ds, w: [2][]float64{wA, wB}}
	for v := 0; v < 2; v++ {
		qw := model.Quantize(s.w[v])
		s.f[v] = make([]float64, ds.N())
		s.tol[v] = make([]float64, ds.N())
		for i := 0; i < ds.N(); i++ {
			s.f[v][i] = m.Score(s.w[v], ds, i, nil)
			// The bound is analytic; the sum it bounds is rounded, so leave
			// a few ulps of the score's magnitude.
			s.tol[v][i] = qw.RowErrorBound(ds.X, i) + 1e-12*(1+math.Abs(s.f[v][i]))
		}
	}
	return s
}

// versionMap tells which of the two weight vectors a snapshot version
// holds. The publisher alternates vectors and versions rise by one per
// publish, so parity relative to a known version identifies the vector.
type versionMap struct {
	base   int64 // a version known to hold vector 0; none older may be served
	static bool  // nobody publishes: every response must carry base itself
}

func (vm versionMap) vector(version int64) (int, bool) {
	if version < vm.base || (vm.static && version != vm.base) {
		return 0, false
	}
	return int((version - vm.base) % 2), true
}

// checkScore is the per-response output check: the score must be the
// offline score of that row under the vector its version identifies —
// exactly on the float path, within the quantisation bound on the int8 path.
func (s *servedModel) checkScore(vm versionMap, quantized bool, row int, res serve.Result) bool {
	v, ok := vm.vector(res.Version)
	if !ok {
		return false
	}
	if quantized {
		return math.Abs(res.Score-s.f[v][row]) <= s.tol[v][row]
	}
	return res.Score == s.f[v][row]
}

// windowStats is one timed window of one phase.
type windowStats struct {
	seconds   float64
	attempted int64
	ok        int64
	rejected  int64 // ErrOverloaded
	failed    int64 // any other error
	wrong     int64 // responses that failed checkScore
	latNS     []int64
	lateNS    []int64 // open loop: how late each request was sent
	queueNS   int64   // summed Result.QueueWait of ok responses
	batchMean float64 // requests per dispatched batch during the window
}

func (w windowStats) rps() float64 { return float64(w.ok) / w.seconds }

// requestOrder is the seeded row order requests are drawn from.
func requestOrder(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int32, n)
	for i, p := range rng.Perm(n) {
		order[i] = int32(p)
	}
	return order
}

// traceRequest records one sampled request as request -> queue_wait +
// service, the split Result.QueueWait gives from outside.
func traceRequest(tr *tracer, run int, start, end time.Time, queueWait time.Duration) {
	id := tr.add("request", "bench", -1, run, start, end)
	split := start.Add(queueWait)
	if split.After(end) {
		split = end
	}
	tr.add("queue_wait", "serve", id, run, start, split)
	tr.add("service", "serve", id, run, split, end)
}

// closedLoop runs callers goroutines against core for d: each sends its next
// request as soon as the previous one returns. Caller k walks order from its
// own offset, so the rows in flight differ.
func closedLoop(core *serve.Core, s *servedModel, vm versionMap, quantized bool, order []int32, callers int, d time.Duration, tr *tracer, run int) windowStats {
	per := make([]windowStats, callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			st := &per[k]
			pos := k * len(order) / callers
			for j := 0; ; j++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				row := int(order[pos])
				if pos++; pos == len(order) {
					pos = 0
				}
				cols, vals := s.ds.X.Row(row)
				res, err := core.Predict(cols, vals)
				st.attempted++
				switch {
				case err == serve.ErrOverloaded:
					st.rejected++
				case err != nil:
					st.failed++
				default:
					st.ok++
					st.queueNS += int64(res.QueueWait)
					if s.f[0] != nil && !s.checkScore(vm, quantized, row, res) {
						st.wrong++
					}
					if tr != nil && j%traceOneIn == 0 {
						traceRequest(tr, run, t0, time.Now(), res.QueueWait)
					}
				}
			}
		}(k)
	}
	wg.Wait()
	total := windowStats{seconds: time.Since(start).Seconds()}
	for i := range per {
		total.attempted += per[i].attempted
		total.ok += per[i].ok
		total.rejected += per[i].rejected
		total.failed += per[i].failed
		total.wrong += per[i].wrong
		total.queueNS += per[i].queueNS
	}
	return total
}

// pacerNap is the pacer's sleep between releases; each wake-up releases the
// requests that fell due meanwhile, each timed from its own due time.
const pacerNap = 50 * time.Microsecond

// schedule is the open-loop arrival plan: request i is due at start +
// i*interval whatever happened to the requests before it.
type schedule struct {
	start    time.Time
	interval time.Duration
	n        int
}

func newSchedule(start time.Time, rate float64, d time.Duration) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / rate), n: int(rate * d.Seconds())}
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// dueBy returns how many requests are due at or before now, so the pacer
// releases requests [sent, dueBy(now)) on each wake-up.
func (s schedule) dueBy(now time.Time) int {
	if now.Before(s.start) {
		return 0
	}
	k := int(now.Sub(s.start)/s.interval) + 1
	if k > s.n {
		k = s.n
	}
	return k
}

// lateness is how long after its due time a request was actually sent.
func (s schedule) lateness(i int, sent time.Time) time.Duration {
	if l := sent.Sub(s.due(i)); l > 0 {
		return l
	}
	return 0
}

// openLoop offers rate requests per second for d on a fixed schedule: the
// pacer (this goroutine) releases request numbers as they fall due, callers
// goroutines carry them. Latency runs from the due time, so a stall is
// charged to every request it delayed.
//
// Between releases the pacer sleeps in nanosleep(2), not time.Sleep: a
// sleeping goroutine wakes on the runtime's millisecond timer grid, which
// would send the 20 us schedule out in bursts of fifty and put half a
// millisecond of generator lateness into every latency, while the system call
// wakes within 0.1-0.2 ms. Polling the clock without sleeping would be
// tighter still, but a pacer that burns a core turns the run into a
// two-busy-core load, and on shared hosts a vCPU that never sleeps is the one
// the host scheduler takes away for milliseconds at a time — the p99 would
// then report the host's time slice, not the program.
func openLoop(core *serve.Core, s *servedModel, vm versionMap, order []int32, callers int, rate float64, d time.Duration, tr *tracer, run int) windowStats {
	sch := newSchedule(time.Now().Add(time.Millisecond), rate, d)
	lat := make([]int64, sch.n)  // -1 = no latency (request failed)
	late := make([]int64, sch.n) // send lateness
	// Room for 20 ms of arrivals: the pacer must never wait for callers,
	// or the loop would close.
	ch := make(chan int, int(rate)/50+callers)
	var rejected, failed, wrong, queueNS atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				row := int(order[i%len(order)])
				cols, vals := s.ds.X.Row(row)
				sent := time.Now()
				res, err := core.Predict(cols, vals)
				done := time.Now()
				late[i] = int64(sch.lateness(i, sent))
				lat[i] = -1
				switch {
				case err == serve.ErrOverloaded:
					rejected.Add(1)
				case err != nil:
					failed.Add(1)
				default:
					lat[i] = int64(done.Sub(sch.due(i)))
					queueNS.Add(int64(res.QueueWait))
					if !s.checkScore(vm, false, row, res) {
						wrong.Add(1)
					}
					if tr != nil && i%traceOneIn == 0 {
						traceRequest(tr, run, sent, done, res.QueueWait)
					}
				}
			}
		}()
	}
	sent := 0
	for sent < sch.n {
		for k := sch.dueBy(time.Now()); sent < k; sent++ {
			ch <- sent
		}
		nap()
	}
	close(ch)
	wg.Wait()
	st := windowStats{
		seconds:   time.Since(sch.start).Seconds(),
		attempted: int64(sch.n),
		rejected:  rejected.Load(), failed: failed.Load(), wrong: wrong.Load(),
		queueNS: queueNS.Load(),
		lateNS:  late,
	}
	for _, l := range lat {
		if l >= 0 {
			st.latNS = append(st.latNS, l)
		}
	}
	st.ok = int64(len(st.latNS))
	sort.Slice(st.latNS, func(a, b int) bool { return st.latNS[a] < st.latNS[b] })
	sort.Slice(st.lateNS, func(a, b int) bool { return st.lateNS[a] < st.lateNS[b] })
	return st
}

// publisher republishes the two weight vectors in turn every interval until
// stopped, the write path of a hot-swapping trainer at a fixed cadence.
type publisher struct {
	stop chan struct{}
	done chan struct{}
	n    int64
}

func startPublisher(store *serve.Store, s *servedModel, meta serve.Snapshot, next int, interval time.Duration) *publisher {
	p := &publisher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				store.PublishWeights(s.w[next], meta)
				next = 1 - next
				p.n++
			}
		}
	}()
	return p
}

// halt stops the publisher, waits for it and returns how many snapshots it
// published.
func (p *publisher) halt() int64 {
	close(p.stop)
	<-p.done
	return p.n
}

// server is the pair of serving cores a run keeps: one scoring in float64
// from a store nobody writes during timing, one scoring through the int8
// twin from a store the publisher writes.
type server struct {
	s         *servedModel
	meta      serve.Snapshot
	float     *serve.Core
	quant     *serve.Core
	floatVM   versionMap
	quantVM   versionMap
	quantNext int // vector the next publish to the quantised store holds
}

// newServer builds both cores with the default batching configuration and
// publishes w to both stores.
func newServer(m *model.LR, ds *data.Dataset, w []float64) *server {
	sv := &server{meta: serve.Snapshot{Model: m.Name(), Dim: ds.D()}}
	fs := serve.NewStore()
	fs.PublishWeights(w, sv.meta)
	sv.float = serve.NewCore(m, fs, serve.Config{})
	qs := serve.NewStore()
	qs.PublishWeights(w, sv.meta)
	sv.quant = serve.NewCore(m, qs, serve.Config{Quantized: true})
	return sv
}

// install publishes the trained model to both stores and fixes the version
// maps the response checks use.
func (sv *server) install(s *servedModel) {
	sv.s = s
	sv.floatVM = versionMap{base: sv.float.Store().PublishWeights(s.w[0], sv.meta), static: true}
	sv.quantVM = versionMap{base: sv.quant.Store().PublishWeights(s.w[0], sv.meta)}
	sv.quantNext = 1
}

func (sv *server) close() {
	sv.float.Close()
	sv.quant.Close()
}

// swapWindow is a closed-loop window on the quantised core while the
// publisher swaps snapshots underneath it.
func (sv *server) swapWindow(order []int32, d time.Duration, tr *tracer, run int) (windowStats, int64) {
	p := startPublisher(sv.quant.Store(), sv.s, sv.meta, sv.quantNext, publishEvery)
	st := closedLoop(sv.quant, sv.s, sv.quantVM, true, order, closedCallers, d, tr, run)
	n := p.halt()
	if n%2 == 1 {
		sv.quantNext = 1 - sv.quantNext
	}
	return st, n
}

func (w windowStats) String() string {
	return fmt.Sprintf("%.0f req/s (%d ok, %d rejected, %d failed, %d wrong in %.2fs)", w.rps(), w.ok, w.rejected, w.failed, w.wrong, w.seconds)
}
