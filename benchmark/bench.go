package main

import (
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/ps"
	"repro/internal/serve"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	setupsUntraced = 3 // set-ups per untraced run; setup_s is their median
	tracedReps     = 2
	refSeedStride  = 1000003
	hardCapFactor  = 8 // warm-up run gives up after this many times the reference epochs
)

// outcome is everything one run produced.
type outcome struct {
	metrics   map[string]float64 // by name; BENCHMARK.json has the units
	attempted int64
	failed    int64
	problems  []string // output checks that failed
	skipped   []string // metrics that could not be measured on this machine
	notes     []string // sample counts and other context, printed before the result
}

func (o *outcome) set(name string, v float64) {
	o.metrics[name] = v
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// list prints the values behind a median, so that a run's log shows how far
// its windows or repetitions lay apart.
func list(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// fixture is one complete set-up: generated data, model, a built and warmed
// engine's effects (pool started, caches touched), both serving cores warm.
type fixture struct {
	spec       data.Spec
	ds         *data.Dataset
	m          *model.LR
	srv        *server
	seconds    float64 // the whole set-up
	genSeconds float64 // data.Generate alone
}

// setUp does what a user does before the first useful epoch or request.
func setUp(wl *workload, P int, seed int64, warmLoad time.Duration, tr *tracer, parent int) (*fixture, error) {
	spec, err := wl.spec(seed)
	if err != nil {
		return nil, err
	}
	root := tr.begin("setup", "bench", parent, -1)
	t0 := time.Now()
	gs := tr.begin("data.Generate", "data", root, -1)
	ds := data.Generate(spec)
	tr.end(gs)
	gen := time.Since(t0).Seconds()

	bs := tr.begin("engine.build", wl.layer, root, -1)
	m := model.NewLR(ds.D())
	eng, release := wl.build(P, m, ds, wl.shuffleSeed(seed, 0), nil)
	tr.end(bs)
	ws := tr.begin("warm", "bench", root, -1)
	es := tr.begin("core.RunEpoch", wl.layer, ws, -1)
	w := m.InitParams(0)
	eng.RunEpoch(w)
	release()
	tr.end(es)
	ss := tr.begin("serve.warm", "serve", ws, -1)
	srv := newServer(m, ds, w)
	unchecked := &servedModel{m: m, ds: ds}
	st := closedLoop(srv.float, unchecked, versionMap{}, false, requestOrder(ds.N(), seed), closedCallers, warmLoad, nil, -1)
	tr.end(ss)
	tr.end(ws)
	tr.end(root)
	if st.ok == 0 || st.failed+st.rejected > 0 {
		srv.close()
		return nil, fmt.Errorf("warm load: %v", st)
	}
	return &fixture{spec: spec, ds: ds, m: m, srv: srv, seconds: time.Since(t0).Seconds(), genSeconds: gen}, nil
}

// refConfigFor is the reference run that fixes wl's target on ds.
func refConfigFor(wl *workload, P int, ds *data.Dataset, seed int64, epochs int, everyEpoch bool) refConfig {
	return refConfig{
		step:   wl.refStep,
		batch:  wl.refBatch(P, ds.N()),
		seed:   seed*refSeedStride + 17,
		epochs: epochs,
		parts:  P,
		evalAt: func(ep int) bool {
			return everyEpoch || ep == wl.refEpochs || (wl.oracle && ep%wl.every == 0)
		},
	}
}

// runWorkload runs one workload once. With tr == nil it is the untraced run
// that yields the end-to-end metrics; with a tracer it is the shorter traced
// run that yields the per-layer metrics.
func runWorkload(wl *workload, P int, seed int64, seconds float64, tr *tracer, logw io.Writer) (*outcome, error) {
	o := &outcome{metrics: make(map[string]float64)}
	pl := wl.plan(seconds)
	traced := tr != nil
	root := tr.begin("run", "bench", -1, -1)

	// Set-up, repeated: setup_s is the median, and only the last is kept.
	nSetups := setupsUntraced
	if traced {
		nSetups = 1
	}
	var fx *fixture
	var setupS []float64
	for i := 0; i < nSetups; i++ {
		if fx != nil {
			fx.srv.close()
			fx = nil
			// Outside every timer. Without it the peak would depend on
			// whether the previous set-up's pages had gone back to the OS
			// when the next one allocated its own.
			debug.FreeOSMemory()
		}
		f, err := setUp(wl, P, seed, pl.warmLoad, tr, root)
		if err != nil {
			return nil, err
		}
		fx = f
		setupS = append(setupS, f.seconds)
	}
	defer fx.srv.close()
	o.set("setup_s", median(setupS))
	fmt.Fprintf(logw, "# set-up: %s N=%d d=%d nnz=%d, %d set-ups %.3fs (generate %.3fs)\n",
		fx.spec.Name, fx.ds.N(), fx.ds.D(), fx.ds.X.NNZ(), nSetups, median(setupS), fx.genSeconds)

	ts, err := startTraining(o, wl, fx, P, seed, pl, tr, root, logw)
	if err != nil {
		return nil, err
	}
	// The serving stage serves the model the warm-up run trained.
	fx.srv.install(newServedModel(fx.m, fx.ds, ts.warm.w, ts.warm.wMid))
	ss := startServing(o, fx.srv, seed, pl, tr)

	// One round is a share of the training repetitions and one window of
	// each serving phase, so the samples behind every number are spread over
	// the whole run: a neighbour's burst of a few seconds lands on a fraction
	// of each number's samples, not on all samples of one number.
	rounds := serveRounds
	if traced {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		rsp := tr.begin("round", "bench", root, i)
		for ts.done < ts.reps*(i+1)/rounds {
			ts.rep(rsp)
		}
		ss.round(rsp)
		tr.end(rsp)
	}
	if err := ts.finish(); err != nil {
		return nil, err
	}
	ss.finish()

	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		o.set("peak_rss_mb", rss)
		return o, nil
	}
	psp := tr.begin("probes", "bench", root, -1)
	runProbes(o, fx, P, seed, ts.warm.w, tr, psp)
	tr.end(psp)
	o.set("data.generate_s", fx.genSeconds)
	o.set("data.nnz", float64(fx.ds.X.NNZ()))
	tr.end(root)
	spans := tr.snapshot()
	byLayer, total := layerSelfMS(spans, root)
	for _, l := range traceLayers {
		o.set("trace.self_ms."+l, byLayer[l])
	}
	wall := float64(spans[root].End-spans[root].Start) / 1e6
	o.set("trace.self_sum_ratio", total/wall)
	if math.Abs(total/wall-1) > 0.05 {
		o.problem("trace: self times sum to %.1f ms, the traced region took %.1f ms", total, wall)
	}
	return o, nil
}

// trainStage is the training stage of a run: the target from the reference,
// the warm-up run, the timed repetitions and their checks.
type trainStage struct {
	o    *outcome
	wl   *workload
	fx   *fixture
	P    int
	seed int64
	t    *trainer
	// warm is the untimed first run: it sizes the repetition count, bounds
	// the epochs a repetition may take, is the curve deterministic
	// repetitions must reproduce, and leaves the model that gets served.
	warm            runResult
	reps, maxEpochs int
	done, failed    int
	ttt, ett        []float64 // per repetition that reached the target
	epochMS         []float64 // every timed epoch
}

// startTraining runs the reference and the warm-up run.
func startTraining(o *outcome, wl *workload, fx *fixture, P int, seed int64, pl plan, tr *tracer, root int, logw io.Writer) (*trainStage, error) {
	// The reference is the benchmark's work, not the program's: it is in no
	// metric, set-up included.
	rs := tr.begin("reference", "bench", root, -1)
	t0 := time.Now()
	ref := refTarget(fx.ds, refConfigFor(wl, P, fx.ds, seed, wl.refEpochs, false), wl.refRuns)
	tr.end(rs)
	t := &trainer{wl: wl, P: P, seed: seed, m: fx.m, ds: fx.ds, target: ref[wl.refEpochs]}
	t.loss0 = model.MeanLoss(fx.m, fx.m.InitParams(0), fx.ds)
	fmt.Fprintf(logw, "# target: loss %.6f = reference (batch %d, step %g, mean of %d) after %d epochs, %.2fs\n",
		t.target, wl.refBatch(P, fx.ds.N()), wl.refStep, wl.refRuns, wl.refEpochs, time.Since(t0).Seconds())

	// The warm-up run is untraced as well as untimed: it is the base of
	// bench.trace_overhead_ratio.
	wsp := tr.begin("warmup_run", "bench", root, -1)
	t0 = time.Now()
	warm := t.runToTarget(0, hardCapFactor*wl.refEpochs+10*wl.every, nil, -1)
	warmWall := time.Since(t0).Seconds()
	tr.end(wsp)
	if !warm.reached || !warm.finite {
		return nil, fmt.Errorf("warm-up run did not reach loss %.6f in %d epochs (last loss %.6f, finite weights %v)",
			t.target, len(warm.epochMS), warm.curve[len(warm.curve)-1].Loss, warm.finite)
	}
	if wl.oracle {
		if err := checkOracle(warm.curve, ref, oracleTol); err != nil {
			o.problem("%s: engine departs from the reference: %v", wl.name, err)
		}
	}
	s := &trainStage{o: o, wl: wl, fx: fx, P: P, seed: seed, t: t, warm: warm}
	s.maxEpochs = 3 * int(math.Ceil(warm.epochsToTarget))
	s.maxEpochs += (wl.every - s.maxEpochs%wl.every) % wl.every
	s.reps = repCount(pl.trainBudget, warmWall, minReps, pl.maxReps)
	if tr != nil {
		s.reps = tracedReps
	}
	fmt.Fprintf(logw, "# warm-up run: %.2f epochs, %.3fs timed, %.3fs wall -> %d repetitions, at most %d epochs each\n",
		warm.epochsToTarget, warm.secondsToTarget, warmWall, s.reps, s.maxEpochs)
	t.tr = tr
	return s, nil
}

// rep runs the next timed repetition and checks its outputs.
func (s *trainStage) rep(parent int) {
	r, wl, tr := s.done, s.wl, s.t.tr
	s.done++
	rsp := tr.begin("rep", "bench", parent, r)
	res := s.t.runToTarget(r, s.maxEpochs, spanDial(tr, s.t), rsp)
	tr.end(rsp)
	s.epochMS = append(s.epochMS, res.epochMS...)
	if !res.reached || !res.finite {
		s.failed++
		return
	}
	s.ttt = append(s.ttt, res.secondsToTarget)
	s.ett = append(s.ett, res.epochsToTarget)
	if wl.deterministic && !sameCurve(res.curve, s.warm.curve) {
		s.o.problem("%s: repetition %d's loss curve differs from the warm-up run's", wl.name, r)
	}
	if wl.layer == "ps" {
		if err := checkPSCounts(res.transport, len(res.epochMS), s.fx.ds.N(), s.P, ps.DefaultBatch, psShards); err != nil {
			s.o.problem("%s: repetition %d: %v", wl.name, r, err)
		}
	}
}

// finish accounts for the repetitions and sets the training metrics.
func (s *trainStage) finish() error {
	o, wl := s.o, s.wl
	o.attempted += int64(s.reps)
	o.failed += int64(s.failed)
	if s.failed > 0 {
		o.problem("%s: %d of %d repetitions missed the target within %d epochs or left non-finite weights", wl.name, s.failed, s.reps, s.maxEpochs)
	}
	if len(s.ttt) == 0 {
		return fmt.Errorf("no repetition reached the target")
	}
	if wl.layer == "ps" {
		// The transport must not change the arithmetic.
		e, stop := buildPS(ps.ModeSync, false, s.P, s.fx.m, s.fx.ds, wl.shuffleSeed(s.seed, 0), nil, nil)
		if c := curveOf(e, s.t, len(s.warm.epochMS)); !sameCurve(c, s.warm.curve) {
			o.problem("%s: the loss curve over ChanTransport differs from the curve over HTTP", wl.name)
		}
		stop()
	}
	o.set("time_to_target_s", median(s.ttt))
	o.set("epochs_to_target", median(s.ett))
	o.set("epoch_ms", median(s.epochMS))
	q1, _, q3 := quartiles(s.epochMS)
	o.note("training: %d repetitions, %d epochs timed, %.2fs of timed epochs; epoch quartiles %.3f / %.3f ms", s.reps, len(s.epochMS), mean(s.epochMS)*float64(len(s.epochMS))/1e3, q1, q3)
	o.note("training: seconds to target per repetition %s", list(s.ttt))
	if s.t.tr != nil {
		o.set("bench.trace_overhead_ratio", median(s.epochMS)/median(s.warm.epochMS))
	}
	return nil
}

// curveOf runs exactly epochs epochs on e from zero weights and evaluates
// the loss where runToTarget would have.
func curveOf(e interface{ RunEpoch([]float64) float64 }, t *trainer, epochs int) []lossPoint {
	w := t.m.InitParams(0)
	curve := []lossPoint{{0, t.loss0, 0}}
	for ep := 1; ep <= epochs; ep++ {
		e.RunEpoch(w)
		if ep%t.wl.every == 0 {
			curve = append(curve, lossPoint{Epoch: ep, Loss: model.MeanLoss(t.m, w, t.ds)})
		}
	}
	return curve
}

// serveStage is the serving stage of a run: windows of three phases on the
// model the warm-up run trained.
type serveStage struct {
	o                  *outcome
	sv                 *server
	pl                 plan
	tr                 *tracer
	order              []int32
	closed, open, swap []windowStats
	publishes          int64
	run                int // id the next window's spans share
}

func startServing(o *outcome, sv *server, seed int64, pl plan, tr *tracer) *serveStage {
	return &serveStage{o: o, sv: sv, pl: pl, tr: tr, order: requestOrder(sv.s.ds.N(), seed*31+7)}
}

// window runs one window of a phase as a span and adds the mean batch size
// the core dispatched during it, from the core's own counters.
func (s *serveStage) window(name string, core *serve.Core, t *tracer, parent int, f func(t *tracer) windowStats) windowStats {
	id := t.begin(name, "serve", parent, s.run)
	before := core.Stats().Snapshot()
	st := f(t)
	after := core.Stats().Snapshot()
	t.end(id)
	s.run++
	if b := after.Batches - before.Batches; b > 0 {
		st.batchMean = float64(after.Requests-before.Requests) / float64(b)
	}
	return st
}

func (s *serveStage) closedWindow(t *tracer, parent int) windowStats {
	sv := s.sv
	return s.window("window.closed", sv.float, t, parent, func(t *tracer) windowStats {
		return closedLoop(sv.float, sv.s, sv.floatVM, false, s.order, closedCallers, s.pl.closed, t, s.run)
	})
}

// round runs one window of each phase.
func (s *serveStage) round(parent int) {
	sv, tr := s.sv, s.tr
	s.closed = append(s.closed, s.closedWindow(tr, parent))
	s.open = append(s.open, s.window("window.open", sv.float, tr, parent, func(t *tracer) windowStats {
		return openLoop(sv.float, sv.s, sv.floatVM, s.order, openCallers, openRate, s.pl.open, t, s.run)
	}))
	s.swap = append(s.swap, s.window("window.swap", sv.quant, tr, parent, func(t *tracer) windowStats {
		st, n := sv.swapWindow(s.order, s.pl.swap, t, s.run)
		s.publishes += n
		return st
	}))
	if tr != nil {
		// The same closed window without request spans: what tracing costs.
		plain := s.closedWindow(nil, parent)
		s.o.set("bench.trace_overhead_serve_ratio", plain.rps()/s.closed[0].rps())
		s.closed = append(s.closed, plain)
	}
}

// finish accounts for the requests and sets the serving metrics.
func (s *serveStage) finish() {
	o, traced := s.o, s.tr != nil
	closed, open, swap, publishes := s.closed, s.open, s.swap, s.publishes
	var rps, swapRPS, p50, p99, p999, late99 []float64
	var beyond99 int
	for _, w := range closed {
		rps = append(rps, w.rps())
	}
	for _, w := range swap {
		swapRPS = append(swapRPS, w.rps())
	}
	for _, w := range open {
		v50, _ := percentileNS(w.latNS, 0.50)
		v99, b := percentileNS(w.latNS, 0.99)
		v999, _ := percentileNS(w.latNS, 0.999)
		l99, _ := percentileNS(w.lateNS, 0.99)
		beyond99 = b
		p50 = append(p50, float64(v50)/1e6)
		p99 = append(p99, float64(v99)/1e6)
		p999 = append(p999, float64(v999)/1e6)
		late99 = append(late99, float64(l99)/1e6)
	}
	o.note("serving: per window, closed req/s %s, swap req/s %s, open p50 ms %s, p99 ms %s", list(rps), list(swapRPS), list(p50), list(p99))
	o.set("serve_rps", median(rps))
	o.set("serve_p50_ms", median(p50))
	o.set("serve_p99_ms", median(p99))
	o.set("serve_swap_rps", median(swapRPS))

	phases := []struct {
		name    string
		ws      []windowStats
		noError bool // a closed loop never overruns the queue: any error is a failed check
	}{{"closed", closed, true}, {"open", open, false}, {"swap", swap, true}}
	for _, ph := range phases {
		var att, ok, rej, fail, wrong, queueNS int64
		var batchMeans []float64
		for _, w := range ph.ws {
			batchMeans = append(batchMeans, w.batchMean)
			att += w.attempted
			ok += w.ok
			rej += w.rejected
			fail += w.failed
			wrong += w.wrong
			queueNS += w.queueNS
		}
		o.attempted += att
		o.failed += rej + fail + wrong
		if wrong > 0 {
			o.problem("serving (%s): %d of %d responses carried a score that is not the offline score of their row under the weights their version names", ph.name, wrong, ok)
		}
		if fail > 0 || (ph.noError && rej > 0) {
			o.problem("serving (%s): %d requests failed, %d were rejected", ph.name, fail, rej)
		}
		o.note("serving (%s): %d windows of %.2fs, %d requests, %d rejected", ph.name, len(ph.ws), ph.ws[0].seconds, att, rej)
		if traced && ok > 0 {
			o.set("serve.queue_wait_us."+ph.name, float64(queueNS)/float64(ok)/1e3)
			o.set("serve.batch_mean."+ph.name, median(batchMeans))
			if ph.name == "open" {
				o.set("serve.rejected_ratio", float64(rej)/float64(att))
			}
		}
	}
	o.note("serving (open): %d latency samples per window, %d beyond p99; generator lateness p99 %.3f ms", len(open[0].latNS), beyond99, median(late99))
	if publishes == 0 {
		o.problem("serving (swap): the publisher never published")
	}
	o.note("serving (swap): %d publishes beside the reads", publishes)
	if traced {
		o.set("serve.p999_ms", median(p999))
		o.set("loadgen.late_p99_ms", median(late99))
	}
}
