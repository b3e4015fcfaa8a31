// Command sgdserve serves model predictions over HTTP with snapshot
// hot-swap and request micro-batching (internal/serve).
//
// Usage:
//
//	sgdserve [-addr :8080] [-model lr|svm|mlp] [-dataset covtype] [-maxn 2000]
//	         [-pretrain 5] [-train] [-epochs 0] [-threads 4] [-step 0.05]
//	         [-publish-every 1] [-eval-every 0]
//	         [-snapshot snap.json] [-save-snapshot snap.json]
//	         [-max-batch 64] [-max-delay 2ms] [-queue 0] [-workers 0] [-quantized]
//	         [-chaos-plan storm] [-chaos-intensity 1] [-seed 1]
//	         [-spans spans.jsonl] [-sample 1] [-slow 250ms]
//	         [-slo "latency<=250ms@99,errors@99.9"] [-slo-fast 1m] [-slo-slow 0] [-burn 2]
//	         [-serve-for 0] [-trace serve.jsonl] [-debug-addr :6060] [-quiet]
//
// Two modes:
//
//   - Offline (default): train -pretrain Hogwild epochs on the generated
//     dataset (or load -snapshot instead), publish once, serve that fixed
//     model.
//   - Online (-train): a background Hogwild trainer keeps running, hot-
//     swapping a fresh immutable snapshot into the serving path every
//     -publish-every epochs while requests are in flight.
//
// -quantized switches batch scoring to the int8 quantised path (DESIGN §14):
// every published snapshot carries an int8 twin of its weights and the linear
// models score through it; the MLP's score is nonlinear in w, so it silently
// keeps the float64 path (/healthz reports which is live).
//
// Endpoints: POST /predict, GET /healthz, /stats, /slo, /metrics (serving
// stats plus the training aggregator's families). -debug-addr additionally
// serves expvar ("sgd_obs"), net/http/pprof and the aggregator's /metrics
// on a second listener (obs.ServeDebug, shared with sgdbench); -trace
// streams one JSONL event per dispatched micro-batch for cmd/sgdtrace.
//
// -spans enables request-level span tracing (internal/span): kept traces
// stream to the given JSONL path for cmd/sgdtrace, head-sampled at -sample
// with tail retention of traces slower than -slow (errored and chaos-faulted
// requests are always kept). -slo names burn-rate objectives; the evaluation
// is served at /slo and exported to /metrics, alerting when both the -slo-fast
// and 10x (or -slo-slow) windows burn the error budget faster than -burn.
// -serve-for bounds the serving time (for smoke tests); otherwise sgdserve
// runs until SIGINT/SIGTERM. Exit status: 0 clean shutdown, 1 runtime
// failure, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sgdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "HTTP listen address (host:0 picks a free port)")
		modelName    = fs.String("model", "lr", "served model: lr|svm|mlp")
		dataset      = fs.String("dataset", "covtype", "registry dataset the model trains on")
		maxN         = fs.Int("maxn", 2000, "examples generated for training")
		pretrain     = fs.Int("pretrain", 5, "offline mode: Hogwild epochs before serving")
		train        = fs.Bool("train", false, "online mode: keep training and hot-swapping snapshots while serving")
		epochs       = fs.Int("epochs", 0, "online mode: stop publishing after this many epochs (0 = until shutdown)")
		threads      = fs.Int("threads", 4, "Hogwild trainer threads")
		step         = fs.Float64("step", 0.05, "SGD step size")
		publishEvery = fs.Int("publish-every", 1, "online mode: epochs between snapshot publishes")
		evalEvery    = fs.Int("eval-every", 0, "online mode: epochs between training-loss evaluations (0 = never)")
		snapshotPath = fs.String("snapshot", "", "serve this saved snapshot instead of training")
		savePath     = fs.String("save-snapshot", "", "write the final served snapshot here on shutdown")
		maxBatch     = fs.Int("max-batch", 64, "largest inference micro-batch (1 disables batching)")
		maxDelay     = fs.Duration("max-delay", 2*time.Millisecond, "deadline before a partial batch flushes")
		queueDepth   = fs.Int("queue", 0, "admission queue bound (0 = 8x max-batch)")
		workers      = fs.Int("workers", 0, "pool workers per batch dispatch (0 = pool size)")
		quantized    = fs.Bool("quantized", false, "score through int8 quantised weights (lr/svm; mlp falls back to float64)")
		chaosPlan    = fs.String("chaos-plan", "", "inject this named fault plan into the serving path")
		intensity    = fs.Float64("chaos-intensity", 1, "fault plan intensity multiplier")
		seed         = fs.Int64("seed", 1, "seed for init params, shuffles and fault streams")
		spansPath    = fs.String("spans", "", "write kept request span traces here as JSONL (enables tracing)")
		sample       = fs.Float64("sample", 1, "head-sampling rate for request traces, in [0,1]")
		slowKeep     = fs.Duration("slow", 250*time.Millisecond, "always keep traces at least this slow (0 = head sampling only)")
		sloSpec      = fs.String("slo", "", `SLO objectives, e.g. "latency<=250ms@99,errors@99.9" (enables /slo burn rates)`)
		sloFast      = fs.Duration("slo-fast", time.Minute, "fast burn-rate window")
		sloSlow      = fs.Duration("slo-slow", 0, "slow burn-rate window (0 = 10x fast)")
		burn         = fs.Float64("burn", 2, "burn-rate alert threshold (both windows must exceed it)")
		serveFor     = fs.Duration("serve-for", 0, "shut down after this long (0 = until SIGINT/SIGTERM)")
		tracePath    = fs.String("trace", "", "write a JSONL serving trace (one event per micro-batch)")
		debugAddr    = fs.String("debug-addr", "", "serve expvar, pprof and aggregator /metrics on this address")
		quiet        = fs.Bool("quiet", false, "suppress startup logging")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, "sgdserve: "+format+"\n", a...)
		}
	}

	spec, err := data.Lookup(*dataset)
	if err != nil {
		fmt.Fprintf(stderr, "sgdserve: %v\n", err)
		return 2
	}
	if *maxN > 0 && *maxN < spec.N {
		spec = spec.Scaled(float64(*maxN) / float64(spec.N))
	}
	ds := data.Generate(spec)

	var m model.Scorer
	switch *modelName {
	case "lr":
		m = model.NewLR(ds.D())
	case "svm":
		m = model.NewSVM(ds.D())
	case "mlp":
		m = model.NewMLPFor(spec)
	default:
		fmt.Fprintf(stderr, "sgdserve: unknown model %q (lr|svm|mlp)\n", *modelName)
		return 2
	}

	var plan chaos.Plan
	if *chaosPlan != "" {
		p, err := chaos.Lookup(*chaosPlan)
		if err != nil {
			fmt.Fprintf(stderr, "sgdserve: %v\n", err)
			return 2
		}
		plan = p.Scale(*intensity)
	}

	var tracer *span.Tracer
	var spanW *span.Writer
	if *spansPath != "" {
		spanW, err = obs.CreateJSONL[span.TraceRec](*spansPath)
		if err != nil {
			fmt.Fprintf(stderr, "sgdserve: %v\n", err)
			return 1
		}
		tracer = span.NewTracer(span.Config{
			SampleRate: *sample, SlowThreshold: *slowKeep, Seed: *seed,
		}, spanW)
		// Closed after the core (defers run LIFO): traces finishing during
		// core shutdown still reach the file.
		defer func() {
			if err := spanW.Close(); err != nil {
				fmt.Fprintf(stderr, "sgdserve: closing %s: %v\n", *spansPath, err)
			}
		}()
	}
	var slo *span.SLO
	if *sloSpec != "" {
		objs, err := span.ParseObjectives(*sloSpec)
		if err != nil {
			fmt.Fprintf(stderr, "sgdserve: %v\n", err)
			return 2
		}
		slo = span.NewSLO(span.SLOConfig{
			Objectives: objs, FastWindow: *sloFast, SlowWindow: *sloSlow,
			BurnThreshold: *burn,
		})
	}

	agg := obs.NewAggregator()
	rec := agg.Run("serve", spec.Name)
	var trace *obs.TraceWriter
	if *tracePath != "" {
		trace, err = obs.CreateJSONL[obs.Event](*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "sgdserve: %v\n", err)
			return 1
		}
		defer trace.Close()
		rec = obs.Tee(rec, obs.TraceRun(trace, "serve", spec.Name))
	}

	eng := core.NewHogwild(m, ds, *step, *threads)
	core.Seed(eng, *seed)
	fp := core.Fingerprint{
		Engine: eng.Name(), Model: m.Name(), Dataset: spec.Name,
		N: ds.N(), Threads: *threads, Seed: *seed,
	}
	meta := serve.Snapshot{Model: m.Name(), Dim: ds.D(), Fingerprint: fp}

	store := serve.NewStore()
	w := m.InitParams(*seed)
	switch {
	case *snapshotPath != "":
		sn, err := serve.LoadSnapshotFile(*snapshotPath)
		if err != nil {
			fmt.Fprintf(stderr, "sgdserve: %v\n", err)
			return 1
		}
		if len(sn.Weights) != m.NumParams() {
			fmt.Fprintf(stderr, "sgdserve: snapshot has %d weights, %s/%s needs %d\n",
				len(sn.Weights), *modelName, *dataset, m.NumParams())
			return 1
		}
		store.Publish(sn)
		logf("serving snapshot %s (model %s, epoch %d)", *snapshotPath, sn.Model, sn.Epoch)
	case *train:
		logf("online mode: %s, publishing every %d epoch(s)", fp, *publishEvery)
	default:
		for e := 0; e < *pretrain; e++ {
			eng.RunEpoch(w)
		}
		meta.Epoch = *pretrain
		meta.Loss = model.MeanLoss(m, w, ds)
		store.PublishWeights(w, meta)
		logf("pretrained %d epochs of %s (loss %.4f)", *pretrain, fp, meta.Loss)
	}

	c := serve.NewCore(m, store, serve.Config{
		MaxBatch: *maxBatch, MaxDelay: *maxDelay, QueueDepth: *queueDepth,
		Workers: *workers, Rec: rec, Plan: plan, ChaosSeed: *seed,
		Tracer: tracer, SLO: slo, Quantized: *quantized,
	})
	defer c.Close()
	if *quantized && !c.Config().Quantized {
		logf("model %s cannot score quantised; serving float64", *modelName)
	}

	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr, agg)
		if err != nil {
			fmt.Fprintf(stderr, "sgdserve: debug server: %v\n", err)
			return 1
		}
		logf("debug server on %s", addr)
	}

	stopTrainer := make(chan struct{})
	trainerDone := make(chan struct{})
	if *train && *snapshotPath == "" {
		tr := &serve.Trainer{
			Engine: eng, Model: m, Data: ds, Store: store, W: w,
			PublishEvery: *publishEvery, EvalEvery: *evalEvery,
			MaxEpochs: *epochs, Meta: meta,
		}
		go func() { defer close(trainerDone); tr.Run(stopTrainer) }()
	} else {
		close(trainerDone)
	}

	srv := serve.NewServer(c)
	srv.SetExtraMetrics(agg.Snapshot)
	boundAddr, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "sgdserve: %v\n", err)
		return 1
	}
	cfg := c.Config()
	scoringPath := "float64"
	if cfg.Quantized {
		scoringPath = "int8"
	}
	logf("listening on %s (max-batch %d, max-delay %s, queue %d, workers %d, scoring %s)",
		boundAddr, cfg.MaxBatch, cfg.MaxDelay, cfg.QueueDepth, cfg.Workers, scoringPath)
	if plan.Active() {
		logf("fault plan active: %s", plan)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if *serveFor > 0 {
		select {
		case <-time.After(*serveFor):
			logf("serve-for %s elapsed", *serveFor)
		case s := <-sig:
			logf("received %s", s)
		}
	} else {
		logf("received %s", <-sig)
	}

	close(stopTrainer)
	<-trainerDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "sgdserve: shutdown: %v\n", err)
	}

	rep := c.Stats().Snapshot()
	fmt.Fprintf(stdout, "served %d requests in %d batches (avg %.1f/batch), %d rejected, %d snapshot swaps, p99 %.3fms\n",
		rep.Requests, rep.Batches, rep.AvgBatch, rep.Rejected, rep.Swaps,
		rep.LatencyP99*1e3)
	if tracer != nil {
		st := tracer.Stats()
		fmt.Fprintf(stdout, "spans: %d traces started, %d kept (%d head, %d slow, %d fault, %d error) -> %s\n",
			st.Started, st.Kept, st.KeptHead, st.KeptSlow, st.KeptFault, st.KeptError, *spansPath)
	}
	if slo != nil {
		srep := slo.Snapshot()
		state := "ok"
		if srep.Alerting {
			state = "ALERT"
		}
		for _, o := range srep.Objectives {
			fmt.Fprintf(stdout, "slo %s: burn %.2f (fast) / %.2f (slow), threshold %.1f, %s\n",
				o.Name, o.FastBurn, o.SlowBurn, srep.BurnThreshold, state)
		}
	}

	if *savePath != "" {
		sn := store.Load()
		if sn == nil {
			fmt.Fprintln(stderr, "sgdserve: no snapshot to save")
			return 1
		}
		if err := serve.SaveSnapshot(*savePath, sn); err != nil {
			fmt.Fprintf(stderr, "sgdserve: %v\n", err)
			return 1
		}
		logf("snapshot v%d saved to %s", sn.Version, *savePath)
	}
	return 0
}
