package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/ps"
	"repro/internal/serve"
	"repro/internal/span"
)

// The probes are the per-layer half of the traced run: after the workload's
// own stages they call each layer's public functions on the workload's data
// and time them from outside. Every workload runs every probe, so a layer's
// number exists on each set of inputs; README.md says which end-to-end
// metric each is expected to move, and on which workload.

// traceLayers are the layers self time is reported for.
var traceLayers = []string{"bench", "data", "sparse", "pool", "linalg", "model", "core", "gpusim", "ps", "serve"}

const (
	probeMin     = 120 * time.Millisecond // least time one probe keeps measuring
	probeWindow  = 400 * time.Millisecond // serving probes
	gpuProbeRows = 20000
	// A parameter-server probe epoch moves 2*shards messages of d/shards
	// floats per 16 rows; the row cap keeps it under a second at any d.
	psProbeRowsSmallD = 8000
	psProbeRowsLargeD = 512
)

// timeIt calls fn until probeMin has passed (at least three times) and
// returns the median seconds per call.
func timeIt(fn func()) float64 {
	var samples []float64
	start := time.Now()
	for len(samples) < 3 || time.Since(start) < probeMin {
		t0 := time.Now()
		fn()
		samples = append(samples, time.Since(t0).Seconds())
	}
	return median(samples)
}

// epochsOf times n epochs of e from zero weights and returns the median
// wall-clock and the last modeled seconds RunEpoch returned.
func epochsOf(e core.Engine, m *model.LR, n int) (wallS, modeledS float64) {
	w := m.InitParams(0)
	var wall []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		modeledS = e.RunEpoch(w)
		wall = append(wall, time.Since(t0).Seconds())
	}
	return median(wall), modeledS
}

type noopTask struct{}

func (noopTask) Run(lo, hi int) {}

// headRows returns ds cut to its first n rows (ds itself when it is no
// longer than that).
func headRows(ds *data.Dataset, n int) *data.Dataset {
	if ds.N() <= n {
		return ds
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return &data.Dataset{Name: ds.Name, X: ds.X.SelectRows(rows), Y: ds.Y[:n]}
}

func runProbes(o *outcome, fx *fixture, P int, seed int64, w []float64, tr *tracer, parent int) {
	ds, m := fx.ds, fx.m
	n, d := ds.N(), ds.D()
	nnz := float64(ds.X.NNZ())
	probe := func(name, layer string, f func()) {
		id := tr.begin(name, layer, parent, -1)
		f()
		tr.end(id)
	}

	rowsOut := make([]float64, n)
	colsOut := make([]float64, d)
	coef := make([]float64, n)
	for i := range coef {
		coef[i] = 0.5 - float64(i%7)/7
	}

	probe("sparse.kernels", "sparse", func() {
		o.set("sparse.mulvec_ns_per_nnz", timeIt(func() { ds.X.MulVec(w, rowsOut) })*1e9/nnz)
		o.set("sparse.mulvect_ns_per_nnz", timeIt(func() { ds.X.MulVecT(coef, colsOut) })*1e9/nnz)
		var maxPart int64
		parts := ds.X.PartitionNNZ(P)
		for _, r := range parts {
			if c := r.NNZ(ds.X); c > maxPart {
				maxPart = c
			}
		}
		o.set("sparse.partition_skew", float64(maxPart)/(nnz/float64(len(parts))))
	})

	probe("pool.dispatch", "pool", func() {
		p := pool.Default()
		const calls = 2000
		o.set("pool.dispatch_us", timeIt(func() {
			for i := 0; i < calls; i++ {
				p.Run(P, P, noopTask{})
			}
		})/calls*1e6)
	})

	var spmvS, spmvtS, axpyS float64
	probe("linalg.kernels", "linalg", func() {
		b := linalg.NewCPU(P)
		spmvS = timeIt(func() { b.SpMV(ds.X, w, rowsOut) })
		spmvtS = timeIt(func() { b.SpMVT(ds.X, coef, colsOut) })
		acc := make([]float64, d)
		axpyS = timeIt(func() { b.Axpy(-1e-9, colsOut, acc) })
		o.set("linalg.spmv_ms", spmvS*1e3)
		o.set("linalg.spmvt_ms", spmvtS*1e3)
		o.set("linalg.axpy_us", axpyS*1e6)
		k := linalg.NewInt8Kernel(P)
		qw := model.Quantize(w)
		o.set("linalg.float_score_ms", timeIt(func() { k.SpMVFloat(ds.X, w, rowsOut) })*1e3)
		o.set("linalg.int8_score_ms", timeIt(func() { k.SpMV(ds.X, qw, rowsOut) })*1e3)
	})

	var stepNS float64
	probe("model.kernels", "model", func() {
		wtmp := append([]float64(nil), w...)
		stepNS = timeIt(func() {
			for i := 0; i < n; i++ {
				m.SGDStep(wtmp, ds, i, 1e-6, model.RawUpdater{}, nil)
			}
		}) * 1e9 / float64(n)
		o.set("model.sgdstep_ns", stepNS)
		b := linalg.NewCPU(P)
		g := make([]float64, d)
		o.set("model.batchgrad_ms", timeIt(func() { m.BatchGrad(b, w, ds, nil, g) })*1e3)
		var sink float64
		o.set("model.score_ns", timeIt(func() {
			for i := 0; i < n; i++ {
				sink += m.Score(w, ds, i, nil)
			}
		})*1e9/float64(n))
		_ = sink
		o.set("model.quantize_us", timeIt(func() { model.Quantize(w) })*1e6)
		o.set("model.meanloss_ms", timeIt(func() { model.MeanLoss(m, w, ds) })*1e3)
	})

	var syncWall, syncModeled, hogWall, hogModeled float64
	probe("core.engines", "core", func() {
		syncWall, syncModeled = epochsOf(core.NewSync(linalg.NewCPU(P), m, ds, syncStep), m, 5)
		o.set("core.sync_overhead_ms", (syncWall-spmvS-spmvtS-axpyS)*1e3)
		if P > 1 { // on one core there is no speed-up to report: left out, and so listed as skipped
			seqWall, _ := epochsOf(core.NewSync(linalg.NewCPU(1), m, ds, syncStep), m, 3)
			o.set("linalg.par_speedup", seqWall/syncWall)
		}

		seq := core.NewHogwild(m, ds, asyncStep, 1)
		seq.SetShuffleSeed(seed)
		seqWall, _ := epochsOf(seq, m, 3)
		o.set("core.hogwild_seq_epoch_ms", seqWall*1e3)
		hog := core.NewHogwild(m, ds, asyncStep, P)
		hog.SetShuffleSeed(seed)
		hogWall, hogModeled = epochsOf(hog, m, 3)
		o.set("core.hogwild_overhead_ratio", hogWall/(float64(n)*stepNS*1e-9/float64(P)))
		em := core.NewHogwild(m, ds, asyncStep, 56)
		em.SetShuffleSeed(seed)
		emWall, _ := epochsOf(em, m, 2)
		o.set("core.hogwild_emulated_epoch_ms", emWall*1e3)

		agg := obs.NewAggregator()
		rec := agg.Run("local", ds.Name)
		loc := core.NewLocalSGD(m, ds, asyncStep, P, localH)
		loc.SetShuffleSeed(seed)
		loc.SetRecorder(rec)
		wLoc := m.InitParams(0)
		var locWall []float64
		const locEpochs = 2
		for i := 0; i < locEpochs; i++ {
			t0 := time.Now()
			sec := loc.RunEpoch(wLoc)
			locWall = append(locWall, time.Since(t0).Seconds())
			rec.EndEpoch(sec)
		}
		rounds := float64(agg.Runs()[0].Counter(obs.CounterLocalRounds)) / locEpochs
		o.set("core.localsgd_rounds", rounds)
		o.set("core.localsgd_epoch_ms", median(locWall)*1e3)
		o.set("core.localsgd_merge_share", 1-float64(n)*stepNS*1e-9/float64(P)/median(locWall))

		// obs attached to the racy engine: off-path cost must stay ~1.
		hogObs := core.NewHogwild(m, ds, asyncStep, P)
		hogObs.SetShuffleSeed(seed)
		hogObs.SetRecorder(obs.NewAggregator().Run("hogwild", ds.Name))
		obsWall, _ := epochsOf(hogObs, m, 3)
		o.set("obs.overhead_ratio", obsWall/hogWall)
	})

	// The cost models' side of the ledger: what RunEpoch returned beside
	// what the same call took on this host.
	o.set("numa.sync_modeled_ms", syncModeled*1e3)
	o.set("numa.hogwild_modeled_ms", hogModeled*1e3)
	o.set("numa.sync_model_ratio", syncWall/syncModeled)
	o.set("numa.hogwild_model_ratio", hogWall/hogModeled)

	probe("gpusim.epochs", "gpusim", func() {
		sub := headRows(ds, gpuProbeRows)
		g := core.NewGPUHogwild(m, sub, asyncStep)
		g.SetShuffleSeed(seed)
		wall, modeled := epochsOf(g, m, 3)
		o.set("gpusim.host_epoch_ms", wall*1e3)
		o.set("gpusim.modeled_epoch_ms", modeled*1e3)
	})

	probe("ps.tier", "ps", func() { probePS(o, ds, m, P, seed) })
	probe("serve.tier", "serve", func() { probeServe(o, fx.srv, m, ds, w, seed) })
}

// timedTransport times every call a worker makes, by verb.
type timedTransport struct {
	base       ps.Transport
	pull, push *durations
}

type durations struct {
	mu sync.Mutex
	ns []float64
}

func (d *durations) add(t time.Duration) {
	d.mu.Lock()
	d.ns = append(d.ns, float64(t))
	d.mu.Unlock()
}

func (d *durations) medianUS() float64 { return median(d.ns) / 1e3 }

func (t timedTransport) Pull(shard int) (ps.PullReply, error) {
	t0 := time.Now()
	rep, err := t.base.Pull(shard)
	t.pull.add(time.Since(t0))
	return rep, err
}

func (t timedTransport) Push(req ps.PushRequest) (ps.PushReply, error) {
	t0 := time.Now()
	rep, err := t.base.Push(req)
	t.push.add(time.Since(t0))
	return rep, err
}

// countingRT counts HTTP exchanges and the bytes of their bodies.
type countingRT struct {
	base         http.RoundTripper
	calls, bytes atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (c *countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	c.calls.Add(1)
	if r.ContentLength > 0 {
		c.bytes.Add(r.ContentLength)
	}
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &c.bytes}
	}
	return resp, err
}

// probePS runs the parameter-server tier on the head of the dataset: one
// synchronous epoch per transport with every call timed, one asynchronous
// epoch over HTTP, and the server's two hot calls on their own.
func probePS(o *outcome, full *data.Dataset, m *model.LR, P int, seed int64) {
	rows := psProbeRowsSmallD
	if full.D() > 1000 {
		rows = psProbeRowsLargeD
	}
	ds := headRows(full, rows)
	o.set("ps.probe_rows", float64(ds.N()))

	// epoch runs one epoch with every worker call timed and returns its
	// wall-clock, the call times, the HTTP exchange counts and the mean
	// staleness the server tallied (async mode).
	epoch := func(mode ps.Mode, overHTTP bool) (wallS float64, pull, push *durations, rt *countingRT, staleness float64) {
		pull, push = &durations{}, &durations{}
		rt = &countingRT{}
		e, stop := buildPS(mode, overHTTP, P, m, ds, seed,
			func(_ int, base ps.Transport) ps.Transport { return timedTransport{base, pull, push} },
			func(base http.RoundTripper) http.RoundTripper { rt.base = base; return rt })
		defer stop()
		agg := obs.NewAggregator()
		rec := agg.Run("ps", ds.Name)
		e.SetRecorder(rec)
		w := m.InitParams(0)
		t0 := time.Now()
		sec := e.RunEpoch(w)
		wallS = time.Since(t0).Seconds()
		rec.EndEpoch(sec)
		run := agg.Runs()[0]
		if pushes := run.Counter(obs.CounterPSPushes); pushes > 0 {
			staleness = float64(run.Counter(obs.CounterPSStalenessSum)) / float64(pushes)
		}
		return
	}

	wall, pull, push, rt, _ := epoch(ps.ModeSync, true)
	o.set("ps.http_epoch_ms", wall*1e3)
	o.set("ps.http_pull_us", pull.medianUS())
	o.set("ps.http_push_us", push.medianUS())
	o.set("ps.wire_bytes_per_epoch", float64(rt.bytes.Load()))
	o.set("ps.calls_per_epoch", float64(rt.calls.Load()))
	wall, pull, push, _, _ = epoch(ps.ModeSync, false)
	o.set("ps.chan_epoch_ms", wall*1e3)
	o.set("ps.chan_pull_us", pull.medianUS())
	o.set("ps.chan_push_us", push.medianUS())
	wall, _, _, _, staleness := epoch(ps.ModeAsync, true)
	o.set("ps.async_http_epoch_ms", wall*1e3)
	o.set("ps.async_staleness_mean", staleness)

	// The server's own work, no transport: one round of P pushes per shard,
	// then the barrier.
	sh, err := ps.NewSharding(m.NumParams(), psShards)
	if err != nil {
		o.problem("ps probe: %v", err)
		return
	}
	srv := ps.NewServer(ps.ModeSync, sh, psStep, P)
	grads := make([][]float64, sh.NumShards())
	for s := range grads {
		grads[s] = make([]float64, sh.Width(s))
	}
	var seq int64
	var pushNS, closeNS []float64
	for round := 0; round < 200; round++ {
		seq++
		for k := 0; k < P; k++ {
			for s := range grads {
				t0 := time.Now()
				_, err := srv.Push(ps.PushRequest{Shard: s, Worker: k, Seq: seq, Count: ps.DefaultBatch, Grad: grads[s]})
				pushNS = append(pushNS, float64(time.Since(t0)))
				if err != nil {
					o.problem("ps probe: push: %v", err)
					return
				}
			}
		}
		t0 := time.Now()
		_, err := srv.CloseRound(P * ps.DefaultBatch)
		closeNS = append(closeNS, float64(time.Since(t0)))
		if err != nil {
			o.problem("ps probe: close round: %v", err)
			return
		}
	}
	o.set("ps.server_push_us", median(pushNS)/1e3)
	o.set("ps.close_round_us", median(closeNS)/1e3)
}

// probeServe measures the serving variants the end-to-end phases leave out,
// each in one short closed-loop window on the trained model.
func probeServe(o *outcome, sv *server, m *model.LR, ds *data.Dataset, w []float64, seed int64) {
	order := requestOrder(ds.N(), seed*31+11)
	meta := sv.meta
	static := func(cfg serve.Config) (*serve.Core, versionMap) {
		st := serve.NewStore()
		v := st.PublishWeights(w, meta)
		c := serve.NewCore(m, st, cfg)
		if cfg.Quantized {
			v = st.Load().Version // NewCore republished the snapshot with its int8 twin
		}
		return c, versionMap{base: v, static: true}
	}
	window := func(cfg serve.Config) windowStats {
		c, vm := static(cfg)
		defer c.Close()
		st := closedLoop(c, sv.s, vm, cfg.Quantized, order, closedCallers, probeWindow, nil, -1)
		if st.wrong+st.failed+st.rejected > 0 {
			o.problem("serve probe %+v: %v", cfg, st)
		}
		o.attempted += st.attempted
		o.failed += st.wrong + st.failed + st.rejected
		return st
	}

	plain := window(serve.Config{})
	// QueueDepth defaults to 8*MaxBatch; keep the batched cores' 512 so that
	// only the batching differs.
	o.set("serve.unbatched_rps", window(serve.Config{MaxBatch: 1, QueueDepth: 512}).rps())
	o.set("serve.quant_rps", window(serve.Config{Quantized: true}).rps())
	tracer := span.NewTracer(span.Config{SampleRate: 0.01, Seed: seed}, span.NewWriter(io.Discard))
	o.set("span.overhead_ratio", plain.rps()/window(serve.Config{Tracer: tracer}).rps())

	// HTTP framing: the handler driven directly, no socket.
	c, _ := static(serve.Config{})
	h := serve.NewServer(c).Handler()
	bodies := make([][]byte, 256)
	for i := range bodies {
		cols, vals := ds.X.Row(int(order[i%len(order)]))
		bodies[i], _ = json.Marshal(map[string]any{"indices": cols, "values": vals}) // plain slices: cannot fail
	}
	var served, bad atomic.Int64
	var handlerNS []float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(probeWindow)
	for k := 0; k < closedCallers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var mine []float64
			for j := k; time.Now().Before(deadline); j++ {
				req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bodies[j%len(bodies)]))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				mine = append(mine, float64(time.Since(t0)))
				if rec.Code != http.StatusOK {
					bad.Add(1)
				}
				served.Add(1)
			}
			mu.Lock()
			handlerNS = append(handlerNS, mine...)
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	c.Close()
	if bad.Load() > 0 {
		o.problem("serve probe: %d of %d HTTP predictions were not 200", bad.Load(), served.Load())
	}
	o.attempted += served.Load()
	o.failed += bad.Load()
	o.set("serve.http_rps", float64(served.Load())/time.Since(start).Seconds())
	o.set("serve.http_handler_us", median(handlerNS)/1e3)

	// Publish cost with and without the int8 twin, nobody reading.
	fs, qs := serve.NewStore(), serve.NewStore()
	qs.SetQuantize(true)
	o.set("serve.publish_us", timeIt(func() { fs.PublishWeights(w, meta) })*1e6)
	o.set("serve.publish_quant_us", timeIt(func() { qs.PublishWeights(w, meta) })*1e6)

	// Swap lag: from the moment a publish returns until a response carries
	// its version, seen by a client polling beside a light closed loop.
	lc, _ := static(serve.Config{Quantized: true})
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for k := 0; k < 8; k++ {
		bg.Add(1)
		go func(k int) {
			defer bg.Done()
			for j := k; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				cols, vals := ds.X.Row(int(order[j%len(order)]))
				lc.Predict(cols, vals) //nolint:errcheck // background load only
			}
		}(k)
	}
	var lagNS []float64
	cols, vals := ds.X.Row(int(order[0]))
	for i := 0; i < 20; i++ {
		time.Sleep(5 * time.Millisecond)
		v := lc.Store().PublishWeights(w, meta)
		t0 := time.Now()
		for {
			res, err := lc.Predict(cols, vals)
			if err != nil {
				o.problem("serve probe: swap lag: %v", err)
				break
			}
			if res.Version >= v {
				lagNS = append(lagNS, float64(time.Since(t0)))
				break
			}
		}
	}
	close(stop)
	bg.Wait()
	lc.Close()
	sort.Float64s(lagNS)
	o.set("serve.swap_lag_ms", median(lagNS)/1e6)
}

// spanDial returns the decorator that records every parameter-server call of
// the traced repetitions as a child span of the RunEpoch that made it.
// Without a tracer there is no decorator.
func spanDial(tr *tracer, t *trainer) dialWrap {
	if tr == nil {
		return nil
	}
	return func(_ int, base ps.Transport) ps.Transport { return spanTransport{base, tr, t} }
}

type spanTransport struct {
	base ps.Transport
	tr   *tracer
	t    *trainer
}

func (s spanTransport) Pull(shard int) (ps.PullReply, error) {
	t0 := time.Now()
	rep, err := s.base.Pull(shard)
	s.tr.add("ps.Pull", "ps", int(s.t.curSpan.Load()), int(s.t.curRep.Load()), t0, time.Now())
	return rep, err
}

func (s spanTransport) Push(req ps.PushRequest) (ps.PushReply, error) {
	t0 := time.Now()
	rep, err := s.base.Push(req)
	s.tr.add("ps.Push", "ps", int(s.t.curSpan.Load()), int(s.t.curRep.Load()), t0, time.Now())
	return rep, err
}
