// Package ps is the sharded parameter-server tier: the paper's central
// sync/async contrast lifted out of one process and stretched across a
// lossy transport. The model vector is split across S shards along the
// 64-byte cache-line stripes of an aligned model vector (model.AlignedVec),
// N workers pull shard parameters and push gradient
// contributions through a pluggable Transport, and the server aggregates
// under one of two disciplines:
//
//   - Synchronous (ModeSync): workers advance in barriered rounds; the
//     server accumulates each round's pushes per shard and applies one
//     averaged update when the round closes. Missing contributions — a
//     worker that missed the barrier deadline, a push dropped or lost to a
//     partition — shrink the effective step by the received fraction, the
//     same graceful-degradation rule as the in-process sync barrier
//     (DESIGN §11), and are counted as shortfall.
//
//   - Asynchronous (ModeAsync): the server applies every push the moment it
//     arrives. Each push carries the shard version its gradient was
//     computed against; version-at-apply minus that basis is the push's
//     staleness, surfaced through the internal/obs ps counters — the
//     distributed tier's generalisation of Hogwild's stale reads.
//
// Transports: ChanTransport carries pull/push over in-process channels (one
// dispatcher goroutine per server, a real queue rather than a function
// call), HTTPTransport speaks checksummed binary float64 frames over HTTP
// against Handler (frame.go; deadlines and a bounded retry on the client),
// and FaultTransport threads an internal/chaos plan through any base
// transport: straggler latency stretch, whole-round link partitions, dropped
// and duplicated pushes. Duplicates are deduplicated server-side by
// per-worker sequence number, so a retransmitted push is idempotent.
//
// Engine drives the tier as one more core.Engine configuration (ps-sync /
// ps-async in the regress matrix); cmd/sgdps emits the degradation report
// showing the barrier paying for a fault that apply-on-arrival absorbs.
package ps

import (
	"fmt"

	"repro/internal/model"
)

// Sharding splits a dim-component model vector across shards along 64-byte
// cache-line stripes: every interior shard boundary is a multiple of
// model.StripeWeights (8 float64 = one cache line), so a shard's parameter
// block never shares a cache line with its neighbour and the server can back
// all shards with one model.AlignedVec. Stripes are dealt as evenly as
// possible (first stripes%shards shards get one extra); when the dimension
// is not a multiple of the stripe width, the final shard absorbs the
// remainder components.
type Sharding struct {
	dim    int
	bounds []int // len = NumShards()+1; bounds[k] is shard k's first component
}

// NewSharding builds the shard layout. The shard count is clamped to the
// stripe count so no shard is empty: asking for 16 shards over a 55-dim
// model (7 stripes) yields 7 shards.
func NewSharding(dim, shards int) (Sharding, error) {
	if dim <= 0 {
		return Sharding{}, fmt.Errorf("ps: model dimension %d must be positive", dim)
	}
	if shards <= 0 {
		return Sharding{}, fmt.Errorf("ps: shard count %d must be positive", shards)
	}
	stripes := (dim + model.StripeWeights - 1) / model.StripeWeights
	if shards > stripes {
		shards = stripes
	}
	bounds := make([]int, shards+1)
	base, extra := stripes/shards, stripes%shards
	stripe := 0
	for k := 0; k < shards; k++ {
		stripe += base
		if k < extra {
			stripe++
		}
		hi := stripe * model.StripeWeights
		if hi > dim {
			hi = dim // the last stripe is short when dim % StripeWeights != 0
		}
		bounds[k+1] = hi
	}
	return Sharding{dim: dim, bounds: bounds}, nil
}

// Dim returns the model dimension the layout covers.
func (s Sharding) Dim() int { return s.dim }

// NumShards returns the shard count (after clamping).
func (s Sharding) NumShards() int { return len(s.bounds) - 1 }

// Range returns shard k's component range [lo, hi).
func (s Sharding) Range(k int) (lo, hi int) { return s.bounds[k], s.bounds[k+1] }

// Width returns the number of components shard k owns.
func (s Sharding) Width(k int) int { return s.bounds[k+1] - s.bounds[k] }

// ShardOf returns the shard owning component i.
func (s Sharding) ShardOf(i int) int {
	if i < 0 || i >= s.dim {
		panic(fmt.Sprintf("ps: component %d outside model dimension %d", i, s.dim))
	}
	// Shards differ by at most one stripe, so a stripe-indexed guess lands
	// on or next to the owner; step to the exact one.
	k := (i / model.StripeWeights) * s.NumShards() / ((s.dim + model.StripeWeights - 1) / model.StripeWeights)
	for s.bounds[k] > i {
		k--
	}
	for s.bounds[k+1] <= i {
		k++
	}
	return k
}

// PullReply is one shard's parameter block plus the version the block
// reflects. Version is the count of updates applied to the shard; a worker
// echoes it back as PushRequest.Basis so the server can measure staleness.
type PullReply struct {
	Shard   int
	Version int64
	Params  []float64
}

// PushRequest is one worker's gradient contribution for one shard: the sum
// of per-example gradients over Count examples, restricted to the shard's
// component range.
type PushRequest struct {
	Shard  int
	Worker int
	// Seq is the worker's monotonic push sequence number; the server
	// discards a push whose Seq it has already seen from this worker on
	// this shard, making retransmitted (duplicated) pushes idempotent.
	Seq int64
	// Basis is the shard version the gradient was computed against (from
	// the matching PullReply, or the worker's cache when partitioned).
	Basis int64
	// Count is how many example gradients Grad sums.
	Count int
	Grad  []float64
}

// PushReply reports what the server did with a push.
type PushReply struct {
	// Applied is false when the push was a duplicate (async and sync) —
	// lost pushes never reach the server at all.
	Applied bool
	// Duplicate marks a sequence number already seen (idempotent discard).
	Duplicate bool
	// Staleness is version-at-arrival minus Basis: how many updates landed
	// on the shard between the worker's pull and this push.
	Staleness int64
	// Version is the shard version after the push was handled.
	Version int64
}
