// Package regress is the golden-run regression harness: it re-executes the
// paper's engine matrix at a small, seeded scale and gates the resulting
// convergence curves against committed references, so a PR that silently
// degrades statistical behaviour (or quietly changes an update rule) fails
// CI instead of surviving on hand-checked claims.
//
// Two gate disciplines, matching the determinism structure of the engines:
//
//   - Deterministic configurations (the synchronous engines on every
//     backend, and every asynchronous path that replays exactly under a
//     fixed seed — see internal/core's determinism tests) are recorded as a
//     single golden loss curve and compared point-by-point within a tight
//     relative tolerance.
//   - Asynchronous configurations are gated on quantile envelopes: N seeded
//     runs are summarised by per-epoch p10/p50/p90 curves, and a fresh
//     median curve must stay inside the recorded band (plus a configured
//     slack) with the final loss within a relative tolerance. This is the
//     same tolerance-band treatment the source paper applies to its
//     convergence figures, and it remains valid on hosts with enough cores
//     for the Hogwild races to be genuinely nondeterministic.
package regress

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/ps"
)

// Config describes one gated engine configuration. The zero values of the
// tuning knobs are invalid; build configs with DefaultMatrix or fill every
// field.
type Config struct {
	// Strategy is "sync" or "async" for the in-process engines,
	// "ps-sync" / "ps-async" for the sharded parameter-server tier, or
	// "local-sync" / "local-async" for the Local-SGD replica family.
	Strategy string `json:"strategy"`
	// Device is "cpu-seq", "cpu-par" or "gpu"; the ps strategies run on
	// "cluster" (N workers pulling/pushing against a sharded server), and
	// the local strategies on "cpu-par" (Threads = replica count).
	Device string `json:"device"`
	// Task is the model: "lr" or "svm" (the dense/sparse axis comes from
	// the dataset).
	Task string `json:"task"`
	// Dataset is a registry name (data.Lookup); N is the generated scale.
	Dataset string `json:"dataset"`
	N       int    `json:"n"`
	// Threads is the modeled CPU thread count for the parallel devices and
	// the worker count for the cluster device.
	Threads int `json:"threads"`
	// Shards is the parameter-server shard count (cluster device only).
	Shards int `json:"shards,omitempty"`
	// H is the Local-SGD averaging granularity (local strategies only):
	// local steps per barrier round for local-sync, the timer's virtual-
	// time aggregation interval for local-async.
	H int `json:"h,omitempty"`
	// Step is the SGD step size.
	Step float64 `json:"step"`
	// Epochs is how many engine epochs the gate runs (the recorded curve
	// has Epochs+1 points, including the epoch-0 initial loss).
	Epochs int `json:"epochs"`
	// Seeds is the number of seeded repetitions an envelope summarises
	// (ignored for deterministic configs, which run seed BaseSeed only).
	Seeds int `json:"seeds"`
	// BaseSeed seeds the first repetition; repetition k uses BaseSeed+k.
	BaseSeed int64 `json:"base_seed"`
}

// strategy is one row of the strategy table — the single place that says, per
// Strategy value, which device it runs on, which gate discipline it gets, how
// its engine names the device axis, and how the engine is built. Build,
// Fingerprint, Deterministic and the degradation contrast only read it, so
// they cannot disagree.
type strategy struct {
	// device is the one device the strategy runs on; "" means any of the
	// in-process devices, which build resolves (nil for one it does not know).
	device string
	// sync marks the barriered strategies: the deterministic ones, gated on an
	// exact golden curve rather than a quantile envelope. Synchronous engines
	// compute identical updates on every backend (the ViennaCL property,
	// asserted bitwise by the core tests), the barriered ps tier drives its
	// workers in a fixed order, and barriered Local SGD advances only private
	// replica state between averaging rounds. Every asynchronous engine is
	// gated statistically, because with enough host cores its races are real
	// (local-async replays exactly per seed but draws a fresh schedule per
	// seed, so the multi-seed envelope is the meaningful gate).
	sync bool
	// needsH marks the Local-SGD strategies: H must be set.
	needsH bool
	// name renders the device axis the way the built engine's Name does, so
	// the fingerprint matches what an attached recorder would report.
	name func(c Config) string
	// build constructs the engine.
	build func(c Config, m model.BatchModel, ds *data.Dataset) core.Engine
}

// strategies is keyed by the exact Strategy string (a suffix test would not
// do: strings.HasSuffix("async", "sync") is true).
var strategies = map[string]strategy{
	"sync": {sync: true, name: inProcessName, build: func(c Config, m model.BatchModel, ds *data.Dataset) core.Engine {
		switch c.Device {
		case "cpu-seq":
			return core.NewSync(linalg.NewCPU(1), m, ds, c.Step)
		case "cpu-par":
			return core.NewSync(linalg.NewCPU(c.Threads), m, ds, c.Step)
		case "gpu":
			return core.NewSync(linalg.NewK80(), m, ds, c.Step)
		}
		return nil
	}},
	"async": {name: inProcessName, build: func(c Config, m model.BatchModel, ds *data.Dataset) core.Engine {
		switch c.Device {
		case "cpu-seq":
			return core.NewHogwild(m, ds, c.Step, 1)
		case "cpu-par":
			return core.NewHogwild(m, ds, c.Step, c.Threads)
		case "gpu":
			return core.NewGPUHogwild(m, ds, c.Step)
		}
		return nil
	}},
	"ps-sync": {device: "cluster", sync: true, name: clusterName, build: func(c Config, m model.BatchModel, ds *data.Dataset) core.Engine {
		return ps.NewEngine(ps.ModeSync, m, ds, c.Step, c.Threads, c.Shards)
	}},
	"ps-async": {device: "cluster", name: clusterName, build: func(c Config, m model.BatchModel, ds *data.Dataset) core.Engine {
		return ps.NewEngine(ps.ModeAsync, m, ds, c.Step, c.Threads, c.Shards)
	}},
	"local-sync": {device: "cpu-par", sync: true, needsH: true, name: localName, build: func(c Config, m model.BatchModel, ds *data.Dataset) core.Engine {
		return core.NewLocalSGD(m, ds, c.Step, c.Threads, c.H)
	}},
	"local-async": {device: "cpu-par", needsH: true, name: localName, build: func(c Config, m model.BatchModel, ds *data.Dataset) core.Engine {
		return core.NewAsyncLocalSGD(m, ds, c.Step, c.Threads, c.H)
	}},
}

// inProcessName is the device axis of the in-process engines, and of any
// strategy the table does not know (its fingerprint still has to print).
func inProcessName(c Config) string {
	switch c.Device {
	case "cpu-par":
		return fmt.Sprintf("cpu-par(%d)", c.Threads)
	case "cluster":
		return clusterName(c)
	}
	return c.Device
}

func clusterName(c Config) string { return fmt.Sprintf("cluster(s%dw%d)", c.Shards, c.Threads) }

// localName renders replica count and averaging granularity (see
// LocalSGDEngine.Name), both of which change the gated curve.
func localName(c Config) string { return fmt.Sprintf("cpu-par(%d)h%d", c.Threads, c.H) }

// Deterministic reports whether the config is gated on an exact golden
// curve rather than a quantile envelope (see strategy.sync).
func (c Config) Deterministic() bool { return strategies[c.Strategy].sync }

// Fingerprint returns the golden-file key for this config.
func (c Config) Fingerprint() core.Fingerprint {
	name := inProcessName
	if row, ok := strategies[c.Strategy]; ok {
		name = row.name
	}
	return core.Fingerprint{
		Engine:  c.Strategy + "/" + name(c),
		Model:   c.Task,
		Dataset: c.Dataset,
		N:       c.N,
		Threads: c.Threads,
		Seed:    c.BaseSeed,
	}
}

// Build constructs the engine, model and dataset of the config. The
// returned engine is fresh (no shared state with previous builds) and
// unseeded: the runner seeds it per repetition.
func (c Config) Build() (core.Engine, model.Model, *data.Dataset, error) {
	spec, err := data.Lookup(c.Dataset)
	if err != nil {
		return nil, nil, nil, err
	}
	if c.N <= 0 || c.Epochs <= 0 || c.Step <= 0 {
		return nil, nil, nil, fmt.Errorf("regress: config %s: N, Epochs and Step must be positive", c.Fingerprint().Key())
	}
	spec = spec.Scaled(float64(c.N) / float64(spec.N))
	ds := data.Generate(spec)
	var m model.BatchModel
	switch c.Task {
	case "lr":
		m = model.NewLR(ds.D())
	case "svm":
		m = model.NewSVM(ds.D())
	default:
		return nil, nil, nil, fmt.Errorf("regress: unknown task %q", c.Task)
	}
	row, ok := strategies[c.Strategy]
	switch {
	case !ok:
		return nil, nil, nil, fmt.Errorf("regress: unknown strategy %q", c.Strategy)
	case row.device != "" && c.Device != row.device:
		return nil, nil, nil, fmt.Errorf("regress: strategy %q requires the %s device, got %q", c.Strategy, row.device, c.Device)
	case row.needsH && c.H <= 0:
		return nil, nil, nil, fmt.Errorf("regress: strategy %q requires H > 0", c.Strategy)
	}
	e := row.build(c, m, ds)
	if e == nil {
		return nil, nil, nil, fmt.Errorf("regress: unknown device %q", c.Device)
	}
	return e, m, ds, nil
}

// DefaultMatrix is the paper's 8-way cube at gate scale: {sync, async} ×
// {multi-core CPU, GPU} × {dense, sparse}, all on LR (the task every
// configuration of the study shares). covtype is the dense representative,
// w8a the sparse one; scales are small enough that the whole matrix runs in
// seconds yet large enough that an update-rule perturbation moves the
// curves far outside the gate tolerances.
func DefaultMatrix() []Config {
	var out []Config
	for _, strategy := range []string{"sync", "async"} {
		for _, device := range []string{"cpu-par", "gpu"} {
			for _, dataset := range []string{"covtype", "w8a"} {
				c := Config{
					Strategy: strategy,
					Device:   device,
					Task:     "lr",
					Dataset:  dataset,
					N:        400,
					Threads:  56,
					Epochs:   12,
					Seeds:    5,
					BaseSeed: 1,
				}
				if device == "gpu" {
					c.Threads = 0
				}
				if strategy == "sync" {
					// Full-batch gradient descent: a larger step keeps the
					// 12-epoch curve informative.
					c.Step = 2.0
					c.Seeds = 1
				} else if dataset == "covtype" {
					// Incremental SGD on dense rows (every update touches
					// every component) needs a smaller step to stay in the
					// stable regime; an unstable run would record an
					// envelope too wide to gate anything.
					c.Step = 0.05
				} else {
					c.Step = 0.5
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// PSMatrix is the parameter-server tier at gate scale: the same BSP/Hogwild
// contrast the in-process matrix gates, lifted across a transport — 4
// workers pulling shard parameters and pushing gradients against a 4-shard
// server. covtype keeps the cluster runs dense (every push touches a full
// shard block), which is where shard-level aggregation differences show
// first.
func PSMatrix() []Config {
	out := syncAsyncPair("ps-sync", "ps-async", Config{
		Device:   "cluster",
		Task:     "lr",
		Dataset:  "covtype",
		N:        400,
		Threads:  4, // cluster workers
		Shards:   4,
		Step:     0.3,
		Epochs:   12,
		Seeds:    5,
		BaseSeed: 1,
	})
	// Mini-batch rounds (workers x batch examples per barrier) sit between
	// full-batch GD and per-example SGD; the step follows.
	out[0].Step = 0.5
	return out
}

// syncAsyncPair is base under a barriered strategy — a single seed, since it
// replays exactly — and under its asynchronous twin.
func syncAsyncPair(syncStrategy, asyncStrategy string, base Config) []Config {
	s, a := base, base
	s.Strategy, s.Seeds = syncStrategy, 1
	a.Strategy = asyncStrategy
	return []Config{s, a}
}

// LocalMatrix is the Local-SGD family at gate scale: 8 replicas averaging
// every H=4 local steps, the communication-efficient middle ground between
// the per-epoch-barriered sync engines and free-running Hogwild. w8a keeps
// the replica steps sparse (the regime where private-copy averaging differs
// most visibly from shared-vector racing). local-sync is deterministic
// (private state between barriers) and gated on an exact golden; local-async
// replays per seed but reschedules across seeds, so it carries an envelope.
func LocalMatrix() []Config {
	return syncAsyncPair("local-sync", "local-async", Config{
		Device:   "cpu-par",
		Task:     "lr",
		Dataset:  "w8a",
		N:        400,
		Threads:  8, // replicas
		H:        4,
		Step:     0.5,
		Epochs:   12,
		Seeds:    5,
		BaseSeed: 1,
	})
}

// FullMatrix is every gated configuration: the paper's in-process cube, the
// parameter-server tier and the Local-SGD family.
func FullMatrix() []Config {
	out := append(DefaultMatrix(), PSMatrix()...)
	return append(out, LocalMatrix()...)
}
