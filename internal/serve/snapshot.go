package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Snapshot is one immutable published model: a private copy of the weights
// plus the identity needed to decide whether two serving runs are
// comparable. Snapshots are never mutated after Publish — hot-swap safety
// rests entirely on that immutability plus the atomic pointer in Store.
type Snapshot struct {
	// Version is the store-assigned publish sequence number (1, 2, ...).
	Version int64 `json:"version"`
	// Model is the served model's name ("lr", "svm", "mlp").
	Model string `json:"model"`
	// Dim is the feature dimensionality requests must respect.
	Dim int `json:"dim"`
	// Weights is the flat parameter vector (model.Model layout).
	Weights []float64 `json:"weights"`
	// Loss is the training loss at publish time when the publisher knows
	// it (0 when untracked).
	Loss float64 `json:"loss,omitempty"`
	// Epoch is the training epoch the snapshot was taken after (offline
	// snapshots keep the epoch they were exported at).
	Epoch int `json:"epoch,omitempty"`
	// Fingerprint identifies the training configuration that produced the
	// weights, in the same core.Fingerprint discipline the regression
	// gates use: reports are only comparable between equal keys.
	Fingerprint core.Fingerprint `json:"fingerprint"`
	// PublishedUnixNano is the host wall-clock publish instant.
	PublishedUnixNano int64 `json:"published_unix_nano,omitempty"`
	// Quant is the int8 quantised twin of Weights (DESIGN §14), attached
	// at publish time when the store is in quantised mode, so both
	// representations hot-swap together under the one atomic pointer and
	// the batcher never sees a version skew between them. It is derived
	// state, excluded from the JSON snapshot format and rebuilt on load.
	Quant *model.QuantizedWeights `json:"-"`
}

// Store is the lock-free snapshot hot-swap point: writers Publish immutable
// snapshots, readers Load the current one with a single atomic pointer read.
// This is the inference-side mirror of Hogwild's shared-model semantics —
// except that where Hogwild tolerates inconsistent element-level reads
// during training, serving gets full consistency for free because the unit
// of publication is an immutable pointer, not a vector element.
type Store struct {
	cur      atomic.Pointer[Snapshot]
	ver      atomic.Int64
	swaps    atomic.Int64
	refused  atomic.Int64
	quantize atomic.Bool
}

// NewStore returns an empty store (Load returns nil until a Publish).
func NewStore() *Store { return &Store{} }

// Load returns the current snapshot, or nil before the first publish. The
// returned snapshot is immutable and safe to read concurrently with any
// number of publishes.
func (s *Store) Load() *Snapshot { return s.cur.Load() }

// Publish installs sn as the current snapshot, assigning the next version,
// and returns that version. sn (including its weight slice) must not be
// mutated afterwards; PublishWeights is the copying convenience for
// publishers that keep training on their vector. A snapshot holding a NaN
// or ±Inf weight is refused: the installed snapshot stays, Refused counts
// the attempt, and Publish returns the installed version (0 before the
// first publish).
func (s *Store) Publish(sn *Snapshot) int64 {
	v, _ := s.publish(sn)
	return v
}

// publish is Publish, also reporting whether sn was installed.
func (s *Store) publish(sn *Snapshot) (int64, bool) {
	if !tensor.AllFinite(sn.Weights) {
		s.refused.Add(1)
		if cur := s.cur.Load(); cur != nil {
			return cur.Version, false
		}
		return 0, false
	}
	sn.Version = s.ver.Add(1)
	if sn.PublishedUnixNano == 0 {
		sn.PublishedUnixNano = time.Now().UnixNano()
	}
	if s.quantize.Load() && sn.Quant == nil && len(sn.Weights) > 0 {
		sn.Quant = model.Quantize(sn.Weights)
	}
	s.cur.Store(sn)
	s.swaps.Add(1)
	return sn.Version, true
}

// SetQuantize makes every future Publish attach the int8 representation to
// the snapshot before installing it (NewCore enables this when the serving
// core is configured Quantized). Publishing is O(dim) either way — the
// quantisation pass adds one more linear sweep per publish, off the request
// path.
func (s *Store) SetQuantize(on bool) { s.quantize.Store(on) }

// PublishWeights publishes a fresh snapshot copying w, for publishers (the
// online Trainer) that continue updating w after the call. meta's Version
// and PublishedUnixNano are overwritten; its Weights are ignored.
func (s *Store) PublishWeights(w []float64, meta Snapshot) int64 {
	v, _ := s.publishWeights(w, meta)
	return v
}

// publishWeights is PublishWeights, also reporting whether the copy was
// installed.
func (s *Store) publishWeights(w []float64, meta Snapshot) (int64, bool) {
	meta.Weights = append([]float64(nil), w...)
	meta.Quant = nil // derived from the fresh copy, never inherited
	meta.PublishedUnixNano = 0
	return s.publish(&meta)
}

// Swaps returns the number of publishes since creation (the swap counter of
// /stats and CounterServeSwaps).
func (s *Store) Swaps() int64 { return s.swaps.Load() }

// Refused returns the number of publishes refused for non-finite weights.
func (s *Store) Refused() int64 { return s.refused.Load() }

// SaveSnapshot writes sn as JSON to path (the cmd/sgdserve -save-snapshot
// format; weights included, so files scale with the model).
func SaveSnapshot(path string, sn *Snapshot) error {
	b, err := json.MarshalIndent(sn, "", " ")
	if err != nil {
		return fmt.Errorf("serve: marshal snapshot: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadSnapshotFile reads a snapshot written by SaveSnapshot and validates
// the weight length against Dim-derived expectations of the caller's model
// (the caller checks Dim/NumParams; here only structural validity).
func LoadSnapshotFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sn Snapshot
	if err := json.Unmarshal(b, &sn); err != nil {
		return nil, fmt.Errorf("serve: parse snapshot %s: %w", path, err)
	}
	if len(sn.Weights) == 0 {
		return nil, fmt.Errorf("serve: snapshot %s has no weights", path)
	}
	return &sn, nil
}
