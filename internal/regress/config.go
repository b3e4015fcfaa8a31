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
	// "ps-sync" / "ps-async" for the sharded parameter-server tier,
	// "local-sync" / "local-async" for the Local-SGD replica family, or
	// "hetero-sync" / "hetero-async" for the heterogeneous CPU+GPU
	// co-training engines.
	Strategy string `json:"strategy"`
	// Device is "cpu-seq", "cpu-par" or "gpu"; the ps strategies run on
	// "cluster" (N workers pulling/pushing against a sharded server), the
	// local strategies on "cpu-par" (Threads = replica count), and the
	// hetero strategies on "cpu+gpu" (Threads = CPU replica count, the GPU
	// side sized by occupancy).
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

// Deterministic reports whether the config is gated on an exact golden
// curve rather than a quantile envelope. Synchronous engines compute
// identical updates on every backend (the ViennaCL property, asserted
// bitwise by the core tests), the barriered ps tier drives its workers in a
// fixed order, and barriered Local SGD advances only private replica state
// between its averaging rounds; every asynchronous engine is gated
// statistically, because with enough host cores its races are real
// (local-async replays exactly per seed but draws a fresh schedule per
// seed, so its multi-seed envelope is the meaningful gate). Synchronous
// heterogeneous co-training is deterministic despite overlapping its two
// backends — they write disjoint private vectors and merge in a fixed fold
// order. Note the explicit equality — strings.HasSuffix would also match
// "async"/"ps-async"/"local-async"/"hetero-async".
func (c Config) Deterministic() bool {
	return c.Strategy == "sync" || c.Strategy == "ps-sync" ||
		c.Strategy == "local-sync" || c.Strategy == "hetero-sync"
}

// Fingerprint returns the golden-file key for this config.
func (c Config) Fingerprint() core.Fingerprint {
	return core.Fingerprint{
		Engine:  c.Strategy + "/" + c.deviceName(),
		Model:   c.Task,
		Dataset: c.Dataset,
		N:       c.N,
		Threads: c.Threads,
		Seed:    c.BaseSeed,
	}
}

// deviceName renders the device axis the way Engine.Name does, so the
// fingerprint matches what an attached recorder would report.
func (c Config) deviceName() string {
	switch {
	case c.Strategy == "local-sync" || c.Strategy == "local-async":
		// The Local-SGD engines render replica count and averaging
		// granularity (see LocalSGDEngine.Name), both of which change the
		// gated curve.
		return fmt.Sprintf("cpu-par(%d)h%d", c.Threads, c.H)
	case c.Strategy == "hetero-sync" || c.Strategy == "hetero-async":
		// The heterogeneous engines render the CPU replica count (see
		// HeteroEngine.Name); the GPU side is implied by the device.
		return fmt.Sprintf("cpu+gpu(%d)", c.Threads)
	case c.Device == "cpu-par":
		return fmt.Sprintf("cpu-par(%d)", c.Threads)
	case c.Device == "cluster":
		return fmt.Sprintf("cluster(s%dw%d)", c.Shards, c.Threads)
	default:
		return c.Device
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
	switch c.Strategy {
	case "sync":
		var b linalg.Backend
		switch c.Device {
		case "cpu-seq":
			b = linalg.NewCPU(1)
		case "cpu-par":
			b = linalg.NewCPU(c.Threads)
		case "gpu":
			b = linalg.NewK80()
		default:
			return nil, nil, nil, fmt.Errorf("regress: unknown device %q", c.Device)
		}
		return core.NewSync(b, m, ds, c.Step), m, ds, nil
	case "async":
		switch c.Device {
		case "cpu-seq":
			return core.NewHogwild(m, ds, c.Step, 1), m, ds, nil
		case "cpu-par":
			return core.NewHogwild(m, ds, c.Step, c.Threads), m, ds, nil
		case "gpu":
			return core.NewGPUHogwild(m, ds, c.Step), m, ds, nil
		default:
			return nil, nil, nil, fmt.Errorf("regress: unknown device %q", c.Device)
		}
	case "ps-sync", "ps-async":
		if c.Device != "cluster" {
			return nil, nil, nil, fmt.Errorf("regress: strategy %q requires the cluster device, got %q", c.Strategy, c.Device)
		}
		mode := ps.ModeSync
		if c.Strategy == "ps-async" {
			mode = ps.ModeAsync
		}
		return ps.NewEngine(mode, m, ds, c.Step, c.Threads, c.Shards), m, ds, nil
	case "local-sync", "local-async":
		if c.Device != "cpu-par" {
			return nil, nil, nil, fmt.Errorf("regress: strategy %q requires the cpu-par device, got %q", c.Strategy, c.Device)
		}
		if c.H <= 0 {
			return nil, nil, nil, fmt.Errorf("regress: strategy %q requires H > 0", c.Strategy)
		}
		if c.Strategy == "local-sync" {
			return core.NewLocalSGD(m, ds, c.Step, c.Threads, c.H), m, ds, nil
		}
		return core.NewAsyncLocalSGD(m, ds, c.Step, c.Threads, c.H), m, ds, nil
	case "hetero-sync", "hetero-async":
		if c.Device != "cpu+gpu" {
			return nil, nil, nil, fmt.Errorf("regress: strategy %q requires the cpu+gpu device, got %q", c.Strategy, c.Device)
		}
		if c.Strategy == "hetero-sync" {
			return core.NewHetero(m, ds, c.Step, c.Threads), m, ds, nil
		}
		return core.NewHeteroAsync(m, ds, c.Step, c.Threads), m, ds, nil
	default:
		return nil, nil, nil, fmt.Errorf("regress: unknown strategy %q", c.Strategy)
	}
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
	var out []Config
	for _, strategy := range []string{"ps-sync", "ps-async"} {
		c := Config{
			Strategy: strategy,
			Device:   "cluster",
			Task:     "lr",
			Dataset:  "covtype",
			N:        400,
			Threads:  4, // cluster workers
			Shards:   4,
			Epochs:   12,
			Seeds:    5,
			BaseSeed: 1,
		}
		if strategy == "ps-sync" {
			// Mini-batch rounds (workers x batch examples per barrier) sit
			// between full-batch GD and per-example SGD; the step follows.
			c.Step = 0.5
			c.Seeds = 1
		} else {
			c.Step = 0.3
		}
		out = append(out, c)
	}
	return out
}

// LocalMatrix is the Local-SGD family at gate scale: 8 replicas averaging
// every H=4 local steps, the communication-efficient middle ground between
// the per-epoch-barriered sync engines and free-running Hogwild. w8a keeps
// the replica steps sparse (the regime where private-copy averaging differs
// most visibly from shared-vector racing). local-sync is deterministic
// (private state between barriers) and gated on an exact golden; local-async
// replays per seed but reschedules across seeds, so it carries an envelope.
func LocalMatrix() []Config {
	var out []Config
	for _, strategy := range []string{"local-sync", "local-async"} {
		c := Config{
			Strategy: strategy,
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
		}
		if strategy == "local-sync" {
			c.Seeds = 1
		}
		out = append(out, c)
	}
	return out
}

// HeteroMatrix is the heterogeneous CPU+GPU co-training family at gate
// scale: 8 CPU replicas co-training with the simulated K80, splitting each
// epoch's shuffled batches by the adaptive throughput ratio. w8a keeps the
// steps sparse, matching the Local-SGD tier whose merge discipline the sync
// engine shares. hetero-sync overlaps the backends but merges in a fixed
// fold order, so it is deterministic and gated on an exact golden;
// hetero-async blends apply-on-arrival on the virtual-time sequencer —
// replayable per seed, rescheduled across seeds — and carries an envelope.
func HeteroMatrix() []Config {
	var out []Config
	for _, strategy := range []string{"hetero-sync", "hetero-async"} {
		c := Config{
			Strategy: strategy,
			Device:   "cpu+gpu",
			Task:     "lr",
			Dataset:  "w8a",
			N:        400,
			Threads:  8, // CPU replicas
			Step:     0.5,
			Epochs:   12,
			Seeds:    5,
			BaseSeed: 1,
		}
		if strategy == "hetero-sync" {
			c.Seeds = 1
		}
		out = append(out, c)
	}
	return out
}

// FullMatrix is every gated configuration: the paper's in-process cube, the
// parameter-server tier, the Local-SGD family, and the heterogeneous
// CPU+GPU family.
func FullMatrix() []Config {
	out := append(DefaultMatrix(), PSMatrix()...)
	out = append(out, LocalMatrix()...)
	return append(out, HeteroMatrix()...)
}
