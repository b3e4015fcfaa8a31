package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ReplicatedHogwildEngine is the DimmWitted "PerNode" variant the paper's
// CPU implementation builds on (Zhang & Ré, PVLDB 2014): each NUMA node
// keeps a private model replica updated Hogwild-style by that node's
// threads, and replicas are averaged at every epoch boundary. Replication
// trades statistical efficiency (staler cross-node information) for hardware
// efficiency (no cross-socket coherence traffic) — the ablation bench
// quantifies both sides.
type ReplicatedHogwildEngine struct {
	Model model.Model
	Data  *data.Dataset
	Step  float64
	// Replicas is the number of model copies (paper machine: 2 sockets).
	Replicas int
	// ThreadsPerReplica is the modeled thread count per node (28).
	ThreadsPerReplica int
	// Cost prices epochs; defaults to the paper machine.
	Cost *numa.Model
	// CostScale inflates modeled work to the full dataset (1 = none).
	CostScale float64
	// Rec receives phase timings: gradient = the slowest replica's Hogwild
	// pass, update = the replica-averaging reduction. The inner engines are
	// deliberately left dark to avoid double-counting their phases.
	Rec obs.Recorder

	inner []*HogwildEngine
	reps  [][]float64
}

// NewReplicatedHogwild builds the PerNode engine with the paper machine's
// topology (2 replicas x 28 threads).
func NewReplicatedHogwild(m model.Model, ds *data.Dataset, step float64) *ReplicatedHogwildEngine {
	return &ReplicatedHogwildEngine{
		Model: m, Data: ds, Step: step,
		Replicas: 2, ThreadsPerReplica: 28,
		Cost: numa.PaperMachine(),
	}
}

// Name implements Engine.
func (e *ReplicatedHogwildEngine) Name() string {
	return fmt.Sprintf("async/cpu-pernode(%dx%d)", e.Replicas, e.ThreadsPerReplica)
}

// build shards the data and creates one inner Hogwild engine and one private
// replica vector per shard, once.
func (e *ReplicatedHogwildEngine) build() {
	if e.inner != nil {
		return
	}
	if e.Replicas < 1 {
		e.Replicas = 1
	}
	n := e.Data.N()
	shard := (n + e.Replicas - 1) / e.Replicas
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	for lo := 0; lo < n; lo += shard {
		hi := lo + shard
		if hi > n {
			hi = n
		}
		sub := &data.Dataset{
			Name: e.Data.Name,
			X:    e.Data.X.SelectRows(rows[lo:hi]),
			Y:    e.Data.Y[lo:hi],
		}
		h := NewHogwild(e.Model, sub, e.Step, e.ThreadsPerReplica)
		h.CostScale = e.CostScale
		e.inner = append(e.inner, h)
		e.reps = append(e.reps, make([]float64, e.Model.NumParams()))
	}
}

// SetShuffleSeed implements Seeded: inner replica r draws its epoch order
// from stream seed+r, so the replicas stop visiting their shards in lockstep
// order (unseeded, every inner engine keeps the constructor's default
// stream).
func (e *ReplicatedHogwildEngine) SetShuffleSeed(seed int64) {
	e.build()
	for r, h := range e.inner {
		h.SetShuffleSeed(seed + int64(r))
	}
}

// RunEpoch implements Engine: every replica makes a Hogwild pass over its
// shard of the data, then the replicas are averaged into w (and re-seeded
// from the average).
func (e *ReplicatedHogwildEngine) RunEpoch(w []float64) float64 {
	e.build()
	// Replicas run concurrently on disjoint sockets: epoch time is the
	// slowest replica (they are near-identical shards), with no
	// cross-socket coherence because each replica is node-local.
	var worst float64
	for r, h := range e.inner {
		copy(e.reps[r], w)
		if sec := h.RunEpoch(e.reps[r]); sec > worst {
			worst = sec
		}
	}
	// Average the replicas into the shared model.
	clear(w)
	inv := 1 / float64(len(e.inner))
	for _, rep := range e.reps {
		tensor.Axpy(inv, rep, w)
	}
	// Averaging itself is a cheap parallel reduction.
	avgCost := e.Cost.StreamTime(int64(len(w)*8), int64(len(w))*8*int64(len(e.inner)+1),
		float64(len(w)*len(e.inner)), e.Replicas*e.ThreadsPerReplica)
	rec := obs.Or(e.Rec)
	rec.Phase(obs.PhaseGradient, worst)
	rec.Phase(obs.PhaseUpdate, avgCost)
	rec.Add(obs.CounterWorkerUpdates, int64(e.Data.N()))
	return worst + avgCost
}

// SetRecorder implements Instrumented.
func (e *ReplicatedHogwildEngine) SetRecorder(r obs.Recorder) { e.Rec = r }

var _ Engine = (*ReplicatedHogwildEngine)(nil)
