package serve

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
)

// Trainer continuously trains a model with any core.Engine (typically
// Hogwild) and publishes weight snapshots to a Store — the online-learning
// mode of cmd/sgdserve. Between epochs RunEpoch has joined its workers, so
// copying the vector races with nothing; the copy is what gets published,
// and concurrent readers keep scoring against the previous immutable
// snapshot until the atomic swap. Publication cadence is per-epoch (or
// every PublishEvery epochs), which bounds snapshot staleness by one
// epoch's wall time. A diverged vector (NaN or ±Inf) is never published: the
// last good snapshot stays installed, Refused counts the skipped publish, and
// training stops there — a diverged vector does not recover.
type Trainer struct {
	// Engine advances W by one epoch per RunEpoch call.
	Engine core.Engine
	// Model/Data identify what is being trained (loss evaluation, snapshot
	// metadata).
	Model model.Model
	Data  *data.Dataset
	// Store receives the published snapshots.
	Store *Store
	// W is the live training vector the engine updates in place.
	W []float64
	// PublishEvery is the epoch count between publishes (<=1: every
	// epoch).
	PublishEvery int
	// EvalEvery is the epoch count between MeanLoss evaluations recorded
	// into the published snapshot (0: never evaluate; the loss field then
	// stays at its last known value). Evaluation is host work outside the
	// serving path.
	EvalEvery int
	// MaxEpochs stops training after this many epochs (0: run until the
	// stop channel closes).
	MaxEpochs int
	// Meta seeds the published snapshots' identity (model name, dim,
	// fingerprint); Version/Weights/PublishedUnixNano are managed by the
	// store.
	Meta Snapshot

	// Epochs counts completed epochs (readable after Run returns).
	Epochs int

	refused int64
}

// Refused returns how many publishes Run skipped because the weights were
// not all finite (readable after Run returns).
func (t *Trainer) Refused() int64 { return t.refused }

// publish installs a copy of W and reports true, unless the store refuses
// it because W has diverged.
func (t *Trainer) publish(meta Snapshot) bool {
	_, ok := t.Store.publishWeights(t.W, meta)
	if !ok {
		t.refused++
	}
	return ok
}

// Run trains until MaxEpochs, stop closes or a publish is refused,
// publishing snapshots along the way. It blocks; callers run it on their own goroutine for online serving.
// The first publish happens before the first epoch, so a freshly started
// online server answers immediately (with the initial model) instead of
// returning ErrNoModel until epoch one completes.
func (t *Trainer) Run(stop <-chan struct{}) {
	publishEvery := t.PublishEvery
	if publishEvery < 1 {
		publishEvery = 1
	}
	meta := t.Meta
	if meta.Model == "" {
		meta.Model = t.Model.Name()
	}
	if meta.Dim == 0 {
		meta.Dim = t.Data.D()
	}
	if !t.publish(meta) {
		return
	}
	for epoch := 0; t.MaxEpochs == 0 || epoch < t.MaxEpochs; epoch++ {
		select {
		case <-stop:
			return
		default:
		}
		t.Engine.RunEpoch(t.W)
		t.Epochs = epoch + 1
		if t.EvalEvery > 0 && (epoch+1)%t.EvalEvery == 0 {
			meta.Loss = model.MeanLoss(t.Model, t.W, t.Data)
		}
		if (epoch+1)%publishEvery == 0 {
			meta.Epoch = epoch + 1
			if !t.publish(meta) {
				return
			}
		}
	}
}
