package serve

import (
	"time"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Result is one request's prediction.
type Result struct {
	// Label is the predicted class in {-1, +1} (sign of Score).
	Label float64 `json:"label"`
	// Score is the model's decision score (margin / log-odds; see
	// model.Scorer).
	Score float64 `json:"score"`
	// Prob is sigmoid(Score): the class-+1 probability for LR and MLP; for
	// SVM it is a monotone but uncalibrated confidence.
	Prob float64 `json:"prob"`
	// Version is the snapshot version the request was scored against.
	Version int64 `json:"model_version"`
	// BatchSize is how many requests rode in the same micro-batch.
	BatchSize int `json:"batch_size"`
	// Trace is the request's span trace ID (16 hex digits), set when the
	// core runs with a Tracer; it keys the exported span tree and echoes
	// back in the X-Trace-Id response header.
	Trace string `json:"trace,omitempty"`
	// QueueWait is time from admission to batch dispatch.
	QueueWait time.Duration `json:"-"`
}

// request is one queued prediction. Instances are recycled through
// Core.reqPool; the done channel (buffered 1) carries the completion signal
// across reuses.
type request struct {
	cols []int32
	vals []float64

	enqueued time.Time
	res      Result
	err      error
	done     chan struct{}

	// tr is the request's span trace (nil when tracing is off); doneAt is
	// stamped by the dispatcher just before the completion signal, so the
	// requester can close the attribution chain with a "resume" span
	// covering its own wake-up latency.
	tr     *span.Trace
	doneAt time.Time
}

// Predict scores one example (cols/vals are the sparse feature vector; for
// dense inputs pass cols 0..d-1) against the current snapshot, riding
// whatever micro-batch the dispatcher forms. It blocks until the batch
// flushes — at most MaxDelay plus the batch compute time — and is safe for
// arbitrary concurrent callers; that concurrency is exactly what fills
// batches.
func (c *Core) Predict(cols []int32, vals []float64) (Result, error) {
	return c.PredictTraced(cols, vals, 0)
}

// PredictTraced is Predict carrying a caller-supplied trace ID (0 = assign
// one), the in-process end of X-Trace-Id propagation. The request's span
// trace covers admission through wake-up; its outcome also lands in the SLO
// windows (client-side feature errors excluded — they spend no budget).
func (c *Core) PredictTraced(cols []int32, vals []float64, id span.ID) (Result, error) {
	sn := c.store.Load()
	if sn == nil {
		c.slo.Record(0, true)
		return Result{}, ErrNoModel
	}
	if len(cols) != len(vals) {
		return Result{}, ErrBadFeatures
	}
	for _, col := range cols {
		if col < 0 || int(col) >= sn.Dim {
			return Result{}, ErrBadFeatures
		}
	}
	start := time.Now()
	tr := c.tracer.Start("predict", id)
	r := c.reqPool.Get().(*request)
	r.cols, r.vals = cols, vals
	r.err = nil
	r.tr = tr
	r.doneAt = time.Time{}
	r.enqueued = time.Now()
	select {
	case c.queue <- r:
		c.stats.requests.Add(1)
		tr.Record("admission", "", tr.Epoch(), r.enqueued, -1, "")
	case <-c.stop:
		r.tr = nil
		c.reqPool.Put(r)
		c.slo.Record(time.Since(start).Seconds(), true)
		tr.Finish("closed")
		return Result{}, ErrClosed
	default:
		r.tr = nil
		c.reqPool.Put(r)
		c.stats.rejected.Add(1)
		c.rec.Add(obs.CounterServeRejected, 1)
		tr.Record("admission", "", tr.Epoch(), time.Now(), -1, "")
		c.slo.Record(time.Since(start).Seconds(), true)
		tr.Finish("overloaded")
		return Result{}, ErrOverloaded
	}
	select {
	case <-r.done:
		res, err := r.res, r.err
		c.finishRequest(tr, start, r.doneAt, err)
		r.cols, r.vals = nil, nil
		r.tr = nil
		c.reqPool.Put(r)
		return res, err
	case <-c.done:
		// Dispatcher exited; a completion signal sent before it closed may
		// still be buffered. The request object is NOT recycled on this
		// path (the dispatcher may still hold it), so the trace is finished
		// but the *request leaks to GC — shutdown-only, by design.
		select {
		case <-r.done:
			res, err := r.res, r.err
			c.finishRequest(tr, start, r.doneAt, err)
			return res, err
		default:
			c.slo.Record(time.Since(start).Seconds(), true)
			tr.Finish("closed")
			return Result{}, ErrClosed
		}
	}
}

// finishRequest closes a completed request's trace — a "resume" span from
// the dispatcher's completion stamp to now, covering scheduler wake-up — and
// folds the outcome into the SLO windows.
func (c *Core) finishRequest(tr *span.Trace, start, doneAt time.Time, err error) {
	if tr != nil && !doneAt.IsZero() {
		tr.Record("resume", "", doneAt, time.Now(), -1, "")
	}
	c.slo.Record(time.Since(start).Seconds(), err != nil)
	tr.Finish(errKind(err))
}

// batchArena holds the dispatcher-owned buffers a flush assembles the
// micro-batch into: one CSR over all request rows plus a Dataset view, so
// the scoring path reuses the training-side Model API unchanged and the
// steady state allocates nothing (the internal/pool discipline).
type batchArena struct {
	rowptr []int64
	colidx []int32
	values []float64
	labels []float64
	csr    sparse.CSR
	ds     data.Dataset
}

// assemble builds the batch CSR from the requests' feature rows.
func (a *batchArena) assemble(batch []*request, dim int) {
	a.rowptr = a.rowptr[:0]
	a.colidx = a.colidx[:0]
	a.values = a.values[:0]
	a.labels = a.labels[:0]
	a.rowptr = append(a.rowptr, 0)
	for _, r := range batch {
		a.colidx = append(a.colidx, r.cols...)
		a.values = append(a.values, r.vals...)
		a.rowptr = append(a.rowptr, int64(len(a.colidx)))
		a.labels = append(a.labels, 1)
	}
	a.csr = sparse.CSR{
		NumRows: len(batch), NumCols: dim,
		RowPtr: a.rowptr, ColIdx: a.colidx, Values: a.values,
	}
	a.ds = data.Dataset{Name: "serve", X: &a.csr, Y: a.labels}
}

// scoreTask scores request rows [lo, hi) of the assembled batch; chunks run
// concurrently on the pool, each with its own model scratch. When a carrier
// trace is set (the first traced request of the batch) every chunk also
// records a "score/shard" span tagged with the executing pool worker, so one
// exemplar per batch shows how the pool split the scoring work.
type scoreTask struct {
	c       *Core
	w       []float64
	qw      *model.QuantizedWeights // non-nil: score through the int8 path
	ds      *data.Dataset
	batch   []*request
	scores  []float64
	carrier *span.Trace
}

func (t *scoreTask) Run(lo, hi int) {
	if t.qw != nil {
		// The int8 kernel: per-row quantised dots over the batch CSR —
		// the same inner loop linalg.Int8Kernel dispatches, here chunked
		// by the batcher's RunGrain policy so tiny batches stay inline.
		for i := lo; i < hi; i++ {
			t.scores[i] = t.c.quant.QuantScore(t.qw, t.ds, i)
		}
		return
	}
	scr := t.c.scratch.Get()
	for i := lo; i < hi; i++ {
		t.scores[i] = t.c.scorer.Score(t.w, t.ds, i, scr)
	}
	t.c.scratch.Put(scr)
}

// RunShard is the pool.ShardTask hook: identical work, plus the per-worker
// shard span into the carrier trace. With no carrier (tracing off, or an
// all-unsampled batch) the chunk pays one nil check and nothing else.
func (t *scoreTask) RunShard(worker, lo, hi int) {
	if t.carrier == nil {
		t.Run(lo, hi)
		return
	}
	begin := time.Now()
	t.Run(lo, hi)
	t.carrier.Record("score/shard", "score", begin, time.Now(), worker, "")
}

// dispatch is the batcher loop: collect a micro-batch (flush on MaxBatch or
// the MaxDelay deadline, whichever first), score it through the pool,
// complete the requests. One dispatcher goroutine owns the arena and the
// fault streams; scoring parallelism comes from the pool.
func (c *Core) dispatch() {
	defer close(c.done)
	var (
		arena   batchArena
		task    scoreTask
		batch   = make([]*request, 0, c.cfg.MaxBatch)
		scores  = make([]float64, c.cfg.MaxBatch)
		timer   = time.NewTimer(time.Hour)
		lastVer int64
	)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-c.stop:
			c.drainClosed()
			return
		case r := <-c.queue:
			batch = append(batch[:0], r)
			if c.cfg.MaxBatch > 1 {
				timer.Reset(c.cfg.MaxDelay)
				fired := false
			fill:
				for len(batch) < c.cfg.MaxBatch {
					select {
					case r2 := <-c.queue:
						batch = append(batch, r2)
					case <-timer.C:
						fired = true
						break fill
					case <-c.stop:
						break fill
					}
				}
				if !fired && !timer.Stop() {
					<-timer.C
				}
			}
			lastVer = c.flush(batch, &arena, &task, scores, lastVer)
		}
	}
}

// flush scores one micro-batch and completes its requests. Returns the
// snapshot version served, so the dispatcher can count hot-swaps it
// observed.
func (c *Core) flush(batch []*request, arena *batchArena, task *scoreTask, scores []float64, lastVer int64) int64 {
	n := len(batch)
	depth := len(c.queue)
	sn := c.store.Load() // non-nil: admission checked, publishes are monotonic
	stream := c.faults.stream()
	flushStart := time.Now()

	arena.assemble(batch, sn.Dim)
	var carrier *span.Trace
	for _, r := range batch {
		if r.tr != nil {
			carrier = r.tr
			break
		}
	}
	var qw *model.QuantizedWeights
	if c.quant != nil {
		// Both representations ride the one snapshot pointer, so the
		// quantised weights are always the float weights' exact twin; a
		// snapshot published before quantised mode (nil Quant) falls back
		// to the float64 path rather than serving stale codes.
		qw = sn.Quant
	}
	start := time.Now()
	*task = scoreTask{c: c, w: sn.Weights, qw: qw, ds: &arena.ds, batch: batch, scores: scores[:n], carrier: carrier}
	c.cfg.Pool.RunGrain(c.cfg.Workers, n, c.cfg.Grain, task)
	compute := time.Since(start)
	computeEnd := time.Now()
	stallEnd := computeEnd
	stalled := false
	if d := c.faults.stretch(stream, compute); d > 0 {
		// The straggler's share of dispatches runs factor× slower, exactly
		// like a straggling training worker; the sleep is the modeled extra
		// service time, observable in the latency tail under load.
		time.Sleep(d)
		compute += d
		stallEnd = time.Now()
		stalled = true
	}

	now := time.Now()
	oldest := now.Sub(batch[0].enqueued) - compute
	if oldest < 0 {
		oldest = 0
	}
	// Count the batch before completing its requests, so every counter a
	// caller can observe is final when its reply arrives.
	c.stats.batches.Add(1)
	c.stats.batchSize.Record(float64(n))
	c.stats.queueSum.Add(int64(depth))
	if qw != nil {
		c.stats.quantBatches.Add(1)
	}
	for i, r := range batch {
		fault := ""
		if c.faults.dropped(stream) {
			r.err = ErrInjectedDrop
			c.stats.dropped.Add(1)
			fault = "drop"
		} else {
			score := scores[i]
			label := -1.0
			if score > 0 {
				label = 1
			}
			r.res = Result{
				Label: label, Score: score, Prob: tensor.Sigmoid(score),
				Version: sn.Version, BatchSize: n,
				QueueWait: now.Sub(r.enqueued) - compute,
			}
		}
		lat := now.Sub(r.enqueued).Seconds()
		c.stats.latency.Record(lat)
		c.rec.Observe(obs.MetricServeLatency, lat)
		if tr := r.tr; tr != nil {
			// The contiguous attribution chain: every instant between
			// enqueue and the completion stamp belongs to exactly one named
			// top-level span, so p99 wall time decomposes without residue.
			tr.Record("queue_wait", "", r.enqueued, flushStart, -1, "")
			tr.Record("batch_assembly", "", flushStart, start, -1, "")
			tr.Record("score", "", start, computeEnd, -1, "")
			if stalled {
				tr.Record("chaos_stall", "", computeEnd, stallEnd, -1, "straggler")
			}
			r.doneAt = time.Now()
			tr.Record("finalize", "", stallEnd, r.doneAt, -1, fault)
			r.res.Trace = tr.ID().String()
		}
		r.done <- struct{}{}
	}

	c.rec.Phase(obs.PhaseBarrier, oldest.Seconds())
	c.rec.Phase(obs.PhaseGradient, compute.Seconds())
	c.rec.Add(obs.CounterServeRequests, int64(n))
	c.rec.Add(obs.CounterServeBatches, 1)
	if qw != nil {
		c.rec.Add(obs.CounterServeQuantBatches, 1)
	}
	if sn.Version > lastVer {
		c.rec.Add(obs.CounterServeSwaps, sn.Version-lastVer)
	}
	c.rec.Observe(obs.MetricServeBatchSize, float64(n))
	c.rec.Observe(obs.MetricServeQueueDepth, float64(depth))
	c.faults.drain(c.rec)
	c.rec.EndEpoch(oldest.Seconds() + compute.Seconds())
	return sn.Version
}

// drainClosed fails every still-queued request after shutdown.
func (c *Core) drainClosed() {
	for {
		select {
		case r := <-c.queue:
			r.err = ErrClosed
			r.done <- struct{}{}
		default:
			return
		}
	}
}
