// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (Section IV), producing the same rows/series at
// a configurable dataset scale. Statistical efficiency (epochs) is measured
// by actually running the engines; hardware efficiency (time per iteration)
// is the modeled device time priced at the full dataset size via the
// engines' cost scaling; time to convergence is their product, exactly the
// three performance axes of the paper's Fig. 2.
package bench

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
)

// Options configures a harness run.
type Options struct {
	// MaxN caps the examples generated per dataset (default 4000). The
	// modeled times are always priced at the paper's full dataset sizes.
	MaxN int
	// Datasets restricts the run (default: all five, Table I order).
	Datasets []string
	// Tasks restricts the run (default lr, svm, mlp).
	Tasks []string
	// MaxEpochs bounds every asynchronous convergence drive (default
	// 300); a configuration that does not reach the threshold is
	// reported ∞, like Table III.
	MaxEpochs int
	// SyncMaxEpochs bounds synchronous drives, which need far more
	// (cheap) epochs: batch gradient descent converges linearly (default
	// 6000).
	SyncMaxEpochs int
	// Tol is the headline convergence tolerance (default 0.01 — the
	// tables' "1% of optimal loss").
	Tol float64
	// ProbeEpochs is the step-tuning probe length (default 6).
	ProbeEpochs int
	// OptEpochs is the optimal-loss estimation budget (default 40).
	OptEpochs int
	// Verbose echoes progress to Out.
	Verbose bool
	// Out receives the formatted tables (nil = discard formatting).
	Out io.Writer
	// CurveDir, when set, receives one CSV per Fig. 7 panel
	// (fig7_<task>_<dataset>.csv with epoch, seconds, loss per engine).
	CurveDir string
	// Repeats re-runs every asynchronous convergence drive this many
	// times with different shuffles and reports the means — the paper's
	// ">= 10 repetitions" methodology (default 1 to keep runs cheap).
	Repeats int
	// TracePath, when set, streams one JSONL obs.Event per (engine,
	// dataset, epoch) of every instrumented drive to that file; inspect it
	// with cmd/sgdtrace. Close the harness to flush it.
	TracePath string
	// Quiet suppresses the progress log even when Verbose is set (the
	// tables themselves still print to Out).
	Quiet bool
}

func (o Options) withDefaults() Options {
	if o.MaxN <= 0 {
		o.MaxN = 4000
	}
	if len(o.Datasets) == 0 {
		o.Datasets = data.Names()
	}
	if len(o.Tasks) == 0 {
		o.Tasks = []string{"lr", "svm", "mlp"}
	}
	if o.MaxEpochs <= 0 {
		o.MaxEpochs = 300
	}
	if o.SyncMaxEpochs <= 0 {
		o.SyncMaxEpochs = 6000
	}
	if o.Tol <= 0 {
		o.Tol = 0.01
	}
	if o.ProbeEpochs <= 0 {
		o.ProbeEpochs = 6
	}
	if o.OptEpochs <= 0 {
		o.OptEpochs = 40
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	return o
}

// Harness caches datasets, optimal losses and tuned steps across the
// experiments of one run.
type Harness struct {
	opts  Options
	log   *obs.Logger
	trace *obs.TraceWriter
	agg   *obs.Aggregator

	mu    sync.Mutex
	preps map[string]*dsPrep
	tasks map[string]*taskPrep
}

// New builds a harness. It panics if Options.TracePath cannot be created,
// like the dataset registry does for config errors.
func New(opts Options) *Harness {
	h := &Harness{
		opts:  opts.withDefaults(),
		agg:   obs.NewAggregator(),
		preps: make(map[string]*dsPrep),
		tasks: make(map[string]*taskPrep),
	}
	if h.opts.Verbose && !h.opts.Quiet && h.opts.Out != nil {
		h.log = obs.NewLogger(h.opts.Out, obs.LevelInfo)
	}
	if h.opts.TracePath != "" {
		tw, err := obs.CreateJSONL[obs.Event](h.opts.TracePath)
		if err != nil {
			panic(fmt.Errorf("bench: cannot create trace: %w", err))
		}
		h.trace = tw
	}
	return h
}

// Options returns the effective (defaulted) options.
func (h *Harness) Options() Options { return h.opts }

// Aggregator exposes the in-memory observability totals accumulated by every
// instrumented drive of this harness (Prometheus snapshot, run summaries,
// expvar export).
func (h *Harness) Aggregator() *obs.Aggregator { return h.agg }

// Close flushes the JSONL trace, if one was requested. The harness remains
// usable, but further events are dropped by the closed writer.
func (h *Harness) Close() error {
	if h.trace != nil {
		return h.trace.Close()
	}
	return nil
}

// recorder builds the observability sink for one (engine, dataset) run:
// always the in-memory aggregator, teed into the JSONL trace when one was
// requested. Callers pass it to core.DriverOpts.Rec or drive it directly.
func (h *Harness) recorder(engine, dataset string) obs.Recorder {
	if h.trace == nil {
		return h.agg.Run(engine, dataset)
	}
	return obs.Tee(h.agg.Run(engine, dataset), obs.TraceRun(h.trace, engine, dataset))
}

// tpi prices one epoch of e on a fresh copy of init under the run's recorder
// (the hardware-efficiency axis; loss evaluation excluded, as in the paper).
func (h *Harness) tpi(e core.Engine, init []float64, dataset string) float64 {
	rec := h.recorder(e.Name(), dataset)
	core.Instrument(e, rec)
	w := append([]float64(nil), init...)
	sec := e.RunEpoch(w)
	rec.EndEpoch(sec)
	return sec
}

// dsPrep is one generated dataset with its cost-scaling factor.
type dsPrep struct {
	spec   data.Spec
	ds     *data.Dataset // native representation (LR/SVM)
	mlpDS  *data.Dataset // feature-grouped (MLP)
	factor float64       // fullN / generatedN
}

// taskPrep is one (dataset, task) pair: its model, reference optimum and
// tuned steps.
type taskPrep struct {
	m        model.BatchModel
	ds       *data.Dataset
	opt      float64
	initLoss float64
	syncStep float64
	// asyncStep is tuned on the sequential CPU configuration;
	// asyncStepGPU separately on the simulated-GPU kernel, whose massive
	// update losses favour different step sizes (the paper tunes every
	// configuration independently).
	asyncStep    float64
	asyncStepGPU float64
}

func (h *Harness) logf(format string, args ...any) {
	h.log.Infof(format, args...)
}

// prep generates (once) the scaled dataset for name.
func (h *Harness) prep(name string) *dsPrep {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.preps[name]; ok {
		return p
	}
	spec, err := data.Lookup(name)
	if err != nil {
		panic(err)
	}
	scaled := spec.Scaled(float64(h.opts.MaxN) / float64(spec.N))
	ds := data.Generate(scaled)
	mlpDS, err := data.ForMLP(ds, scaled)
	if err != nil {
		panic(err)
	}
	p := &dsPrep{
		spec:   spec,
		ds:     ds,
		mlpDS:  mlpDS,
		factor: float64(spec.N) / float64(ds.N()),
	}
	h.preps[name] = p
	return p
}

// task prepares (once) the model, optimum and tuned steps for a
// (dataset, task) pair.
func (h *Harness) task(dsName, taskName string) *taskPrep {
	key := dsName + "/" + taskName
	h.mu.Lock()
	if t, ok := h.tasks[key]; ok {
		h.mu.Unlock()
		return t
	}
	h.mu.Unlock()

	p := h.prep(dsName)
	var m model.BatchModel
	ds := p.ds
	switch taskName {
	case "lr":
		m = model.NewLR(ds.D())
	case "svm":
		m = model.NewSVM(ds.D())
	case "mlp":
		ds = p.mlpDS
		m = model.NewMLPFor(p.spec)
	default:
		panic("bench: unknown task " + taskName)
	}
	h.logf("# preparing %s/%s: estimating optimum and tuning steps\n", dsName, taskName)
	t := &taskPrep{m: m, ds: ds}
	init := m.InitParams(1)
	t.initLoss = model.MeanLoss(m, init, ds)
	t.opt = core.EstimateOptLoss(m, ds, h.opts.OptEpochs)

	// Tune the synchronous step with the engine family it will drive
	// (full-batch for LR/SVM, the chunked pipeline for MLP) and the
	// asynchronous step with sequential incremental/mini-batch SGD; the
	// paper tunes each configuration on the same grid. Synchronous
	// probes run longer: batch GD needs more epochs before an unstable
	// (oscillating) step betrays itself.
	t.syncStep = core.TuneStep(func(s float64) core.Engine {
		return h.syncEngine(dsName, taskName, s, "cpu-par")
	}, m, ds, init, 10*h.opts.ProbeEpochs)
	t.asyncStep = core.TuneStep(func(s float64) core.Engine {
		return h.asyncEngine(dsName, taskName, s, "cpu-seq")
	}, m, ds, init, h.opts.ProbeEpochs)
	t.asyncStepGPU = core.TuneStep(func(s float64) core.Engine {
		return h.asyncEngine(dsName, taskName, s, "gpu")
	}, m, ds, init, h.opts.ProbeEpochs)

	h.mu.Lock()
	h.tasks[key] = t
	h.mu.Unlock()
	h.logf("# %s/%s: init %.4f opt %.4f syncStep %g asyncStep %g asyncStepGPU %g\n",
		dsName, taskName, t.initLoss, t.opt, t.syncStep, t.asyncStep, t.asyncStepGPU)
	return t
}

// fmtMS renders seconds as the paper's msec columns.
func fmtMS(sec float64) string {
	if math.IsInf(sec, 1) || math.IsNaN(sec) {
		return "inf"
	}
	switch {
	case sec >= 100:
		return fmt.Sprintf("%.0fs", sec)
	case sec >= 1:
		return fmt.Sprintf("%.2fs", sec)
	default:
		return fmt.Sprintf("%.2fms", sec*1e3)
	}
}

// fmtEpochs renders an epoch count, ∞ for unreached.
func fmtEpochs(e int) string {
	if e < 0 {
		return "inf"
	}
	return fmt.Sprintf("%d", e)
}

// fmtRatio renders a speedup.
func fmtRatio(r float64) string {
	if math.IsInf(r, 0) || math.IsNaN(r) {
		return "-"
	}
	return fmt.Sprintf("%.2f", r)
}
