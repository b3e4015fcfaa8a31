package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/ps"
)

// Engine parameters shared with the probes, so a per-layer number is taken
// on the configuration the end-to-end number ran.
const (
	syncStep  = 32.0
	asyncStep = 0.5
	localH    = 16
	psStep    = 0.3
	psShards  = 4
)

// workload is one set of inputs and one engine configuration. Every
// workload trains logistic regression (the one task all configurations of
// the study share) to a loss target and then serves the model it trained.
type workload struct {
	name string

	dataset string // registry name (internal/data)
	rows    int    // examples generated; 0 = the full Table I size

	// Training stage.
	engine string // human-readable engine configuration
	layer  string // package the engine lives in ("core" or "ps"): its spans' layer, and ps gets the transport checks
	every  int    // epochs between loss evaluations
	// build returns a fresh engine for one run, its shuffle stream seeded
	// with shuffle, and a function that releases what it holds. dial, when
	// non-nil, decorates the parameter-server transport (traced runs).
	build func(P int, m *model.LR, ds *data.Dataset, shuffle int64, dial dialWrap) (core.Engine, func())
	// distinctShuffles gives every repetition its own shuffle stream and
	// reports the median over them. It is set on the engines whose
	// repetitions cannot be compared bit for bit anyway; the engines that
	// must repeat exactly keep one stream.
	distinctShuffles bool
	deterministic    bool // loss curve must repeat bit for bit across repetitions
	// serving marks the workload that exists for its serving stage: that
	// stage then gets the long windows and training the short budget.
	serving bool

	// Reference (reference.go) that fixes the loss target on this data.
	refBatch  func(P, n int) int
	refStep   float64
	refEpochs int // the target is the reference's mean loss after this many epochs
	refRuns   int // shuffles averaged
	// oracle: the reference is the same algorithm as the engine, so the
	// engine's curve must match it to oracleTol at every evaluated epoch.
	oracle bool
}

// plan is how one run spends its timed seconds. The stage a workload exists
// for follows the README's protocol in full; the other stage, which is there
// because every run reports every end-to-end metric, gets what is left.
// Durations are stated at -seconds = protocolSeconds and scale with it.
type plan struct {
	trainBudget        float64 // seconds of timed training repetitions
	maxReps            int
	closed, open, swap time.Duration // one window of each serving phase
	warmLoad           time.Duration // closed-loop load that ends a set-up
}

const (
	minReps     = 5
	serveRounds = 5 // windows per serving phase, the phases interleaved
)

func (wl *workload) plan(seconds float64) plan {
	k := seconds / protocolSeconds
	d := func(s float64) time.Duration { return time.Duration(s * k * float64(time.Second)) }
	if wl.serving {
		return plan{trainBudget: 1.5 * k, maxReps: 80, closed: d(1.2), open: d(2.0), swap: d(1.2), warmLoad: 500 * time.Millisecond}
	}
	return plan{trainBudget: 8 * k, maxReps: 32, closed: d(0.5), open: d(0.8), swap: d(0.5), warmLoad: 200 * time.Millisecond}
}

// dialWrap decorates the transport a parameter-server worker is handed.
type dialWrap func(worker int, t ps.Transport) ps.Transport

func one(int, int) int       { return 1 }
func fullBatch(_, n int) int { return n }

var workloads = []workload{
	{
		name:    "sync-kernels",
		dataset: "real-sim",
		engine:  "core.NewSync(linalg.NewCPU(P)), full batch, step 32",
		layer:   "core", every: 5,
		build: func(P int, m *model.LR, ds *data.Dataset, _ int64, _ dialWrap) (core.Engine, func()) {
			return core.NewSync(linalg.NewCPU(P), m, ds, syncStep), func() {}
		},
		deterministic: true,
		refBatch:      fullBatch, refStep: syncStep, refEpochs: 98, refRuns: 1, oracle: true,
	},
	{
		name:    "async-hogwild",
		dataset: "real-sim",
		engine:  "core.NewHogwild(P), step 0.5",
		layer:   "core", every: 1,
		build: func(P int, m *model.LR, ds *data.Dataset, shuffle int64, _ dialWrap) (core.Engine, func()) {
			e := core.NewHogwild(m, ds, asyncStep, P)
			e.SetShuffleSeed(shuffle)
			return e, func() {}
		},
		distinctShuffles: true,
		refBatch:         one, refStep: asyncStep, refEpochs: 8, refRuns: 16,
	},
	{
		name:    "replica-merge",
		dataset: "real-sim", rows: 20000,
		engine: "core.NewLocalSGD(K=P, H=16), step 0.5",
		layer:  "core", every: 1,
		build: func(P int, m *model.LR, ds *data.Dataset, shuffle int64, _ dialWrap) (core.Engine, func()) {
			e := core.NewLocalSGD(m, ds, asyncStep, P, localH)
			e.SetShuffleSeed(shuffle)
			return e, func() {}
		},
		deterministic: true,
		refBatch:      one, refStep: asyncStep, refEpochs: 10, refRuns: 16,
	},
	{
		name:    "ps-cluster",
		dataset: "w8a", rows: 8000,
		engine: "ps.NewEngine(ModeSync, workers=P, shards=4) over ps.HTTPTransport, step 0.3",
		layer:  "ps", every: 1,
		build: func(P int, m *model.LR, ds *data.Dataset, shuffle int64, dial dialWrap) (core.Engine, func()) {
			return buildPS(ps.ModeSync, true, P, m, ds, shuffle, dial, nil)
		},
		deterministic: true,
		refBatch:      func(P, _ int) int { return P * ps.DefaultBatch }, refStep: psStep, refEpochs: 4, refRuns: 16,
	},
	{
		name:    "serve-hotswap",
		dataset: "real-sim", rows: 20000,
		engine: "core.NewHogwild(1) sequential SGD, step 0.5",
		layer:  "core", every: 1,
		build: func(_ int, m *model.LR, ds *data.Dataset, shuffle int64, _ dialWrap) (core.Engine, func()) {
			e := core.NewHogwild(m, ds, asyncStep, 1)
			e.SetShuffleSeed(shuffle)
			return e, func() {}
		},
		distinctShuffles: true, serving: true,
		refBatch: one, refStep: asyncStep, refEpochs: 5, refRuns: 16,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// spec returns the workload's dataset spec with -seed applied.
func (wl *workload) spec(seed int64) (data.Spec, error) {
	spec, err := data.Lookup(wl.dataset)
	if err != nil {
		return data.Spec{}, err
	}
	if wl.rows > 0 {
		spec = spec.Scaled(float64(wl.rows) / float64(spec.N))
	}
	spec.Seed += seed
	return spec, nil
}

// shuffleSeed is the engine shuffle stream of repetition rep.
func (wl *workload) shuffleSeed(seed int64, rep int) int64 {
	s := seed*7919 + 101
	if wl.distinctShuffles {
		s += int64(rep)
	}
	return s
}

// buildPS wires a parameter-server engine. Over HTTP the workers talk JSON
// to a loopback listener through one shared keep-alive client, as cmd/sgdps
// users run it; otherwise they use the in-process channel transport. The
// returned function stops the listener or the dispatcher. dial, when non-nil,
// decorates every worker's transport; rt, when non-nil, the HTTP client's.
func buildPS(mode ps.Mode, overHTTP bool, P int, m *model.LR, ds *data.Dataset, shuffle int64, dial dialWrap, rt func(http.RoundTripper) http.RoundTripper) (*ps.Engine, func()) {
	e := ps.NewEngine(mode, m, ds, psStep, P, psShards)
	e.SetShuffleSeed(shuffle)
	var base ps.Transport
	stop := func() {}
	if overHTTP {
		srv := httptest.NewServer(ps.NewHTTPServer(e.Server()).Handler())
		var tp http.RoundTripper = &http.Transport{MaxIdleConns: P, MaxIdleConnsPerHost: P, MaxConnsPerHost: P}
		if rt != nil {
			tp = rt(tp)
		}
		client := &http.Client{Transport: tp}
		base = &ps.HTTPTransport{BaseURL: srv.URL, Client: client}
		stop = func() {
			client.CloseIdleConnections()
			srv.Close()
		}
	} else {
		ct := ps.NewChanTransport(e.Server())
		ct.Start()
		base = ct
		stop = ct.Stop
	}
	e.Dial = func(k int) ps.Transport {
		if dial != nil {
			return dial(k, base)
		}
		return base
	}
	return e, stop
}
