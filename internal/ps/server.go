package ps

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Mode selects the server's aggregation discipline.
type Mode string

const (
	// ModeSync accumulates a round's pushes and applies one averaged update
	// at CloseRound — the BSP barrier lifted across the transport.
	ModeSync Mode = "sync"
	// ModeAsync applies each push the moment it arrives — Hogwild's
	// apply-on-arrival discipline across the transport.
	ModeAsync Mode = "async"
)

// Server owns the sharded model vector. All shards live in one 64-byte
// aligned backing vector (model.AlignedVec) with stripe-aligned shard
// boundaries, so shard k's parameter block is params[lo:hi] and no two
// shards share a cache line. Each shard carries its own mutex, version
// counter, per-worker dedupe horizon and (in sync mode) a gradient
// accumulator; Pull and Push are safe for concurrent use from any number of
// transports.
type Server struct {
	mode    Mode
	sh      Sharding
	step    float64
	workers int
	params  []float64 // one AlignedVec backing every shard
	shards  []shardState
}

// shardState is one shard's mutable state. Tallies accumulate under the
// shard mutex and are folded into obs counters by Drain once per epoch, the
// same drain-per-epoch discipline the in-process engines follow.
type shardState struct {
	mu      sync.Mutex
	version int64
	lastSeq []int64   // highest Seq applied per worker (dedupe horizon)
	acc     []float64 // sync-mode round accumulator
	accN    int       // examples accumulated this round

	pulls, pushes, dups   int64
	rejected              int64
	stalePushes, staleSum int64
}

// NewServer builds a server over an initially-zero model vector.
func NewServer(mode Mode, sh Sharding, step float64, workers int) *Server {
	if workers < 1 {
		workers = 1
	}
	s := &Server{
		mode:    mode,
		sh:      sh,
		step:    step,
		workers: workers,
		params:  model.AlignedVec(sh.Dim()),
		shards:  make([]shardState, sh.NumShards()),
	}
	for k := range s.shards {
		st := &s.shards[k]
		st.lastSeq = make([]int64, workers)
		for w := range st.lastSeq {
			st.lastSeq[w] = -1
		}
		if mode == ModeSync {
			st.acc = make([]float64, sh.Width(k))
		}
	}
	return s
}

// Mode returns the aggregation discipline.
func (s *Server) Mode() Mode { return s.mode }

// Sharding returns the shard layout.
func (s *Server) Sharding() Sharding { return s.sh }

// Load replaces the full model vector (all shards), e.g. at epoch start.
func (s *Server) Load(w []float64) error {
	if len(w) != s.sh.Dim() {
		return fmt.Errorf("ps: load of %d components into %d-dim server", len(w), s.sh.Dim())
	}
	for k := range s.shards {
		lo, hi := s.sh.Range(k)
		st := &s.shards[k]
		st.mu.Lock()
		copy(s.params[lo:hi], w[lo:hi])
		st.mu.Unlock()
	}
	return nil
}

// Snapshot copies the full model vector out (all shards).
func (s *Server) Snapshot(w []float64) error {
	if len(w) != s.sh.Dim() {
		return fmt.Errorf("ps: snapshot of %d-dim server into %d components", s.sh.Dim(), len(w))
	}
	for k := range s.shards {
		lo, hi := s.sh.Range(k)
		st := &s.shards[k]
		st.mu.Lock()
		copy(w[lo:hi], s.params[lo:hi])
		st.mu.Unlock()
	}
	return nil
}

// Version returns shard k's current version.
func (s *Server) Version(k int) int64 {
	st := &s.shards[k]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.version
}

// Pull serves shard k's parameter block and version.
func (s *Server) Pull(shard int) (PullReply, error) {
	if shard < 0 || shard >= s.sh.NumShards() {
		return PullReply{}, fmt.Errorf("ps: pull of shard %d outside [0,%d)", shard, s.sh.NumShards())
	}
	lo, hi := s.sh.Range(shard)
	out := make([]float64, hi-lo)
	st := &s.shards[shard]
	st.mu.Lock()
	copy(out, s.params[lo:hi])
	v := st.version
	st.pulls++
	st.mu.Unlock()
	return PullReply{Shard: shard, Version: v, Params: out}, nil
}

// appendPull is Pull for the HTTP handler: it appends the reply's wire frame
// to dst straight from the shard under its lock, skipping Pull's copy.
func (s *Server) appendPull(dst []byte, shard int) ([]byte, error) {
	if shard < 0 || shard >= s.sh.NumShards() {
		return dst, fmt.Errorf("ps: pull of shard %d outside [0,%d)", shard, s.sh.NumShards())
	}
	lo, hi := s.sh.Range(shard)
	st := &s.shards[shard]
	st.mu.Lock()
	dst = appendPullReply(dst, shard, st.version, s.params[lo:hi])
	st.pulls++
	st.mu.Unlock()
	return dst, nil
}

// Push lands one gradient contribution. Duplicates (a Seq at or below the
// worker's dedupe horizon) are discarded idempotently. In async mode the
// update applies immediately: params -= step * grad/count, version++;
// staleness (version at arrival minus Basis) is tallied. In sync mode the
// gradient joins the round accumulator and applies at CloseRound. A gradient
// with a NaN or Inf component is refused whole: nothing is accumulated or
// applied, the dedupe horizon does not move, and Stats.Rejected counts it.
func (s *Server) Push(req PushRequest) (PushReply, error) {
	if req.Shard < 0 || req.Shard >= s.sh.NumShards() {
		return PushReply{}, fmt.Errorf("ps: push to shard %d outside [0,%d)", req.Shard, s.sh.NumShards())
	}
	if req.Worker < 0 || req.Worker >= s.workers {
		return PushReply{}, fmt.Errorf("ps: push from worker %d outside [0,%d)", req.Worker, s.workers)
	}
	lo, hi := s.sh.Range(req.Shard)
	if len(req.Grad) != hi-lo {
		return PushReply{}, fmt.Errorf("ps: push of %d components to %d-wide shard %d", len(req.Grad), hi-lo, req.Shard)
	}
	if req.Count < 1 {
		return PushReply{}, fmt.Errorf("ps: push summing %d examples", req.Count)
	}
	finite := tensor.AllFinite(req.Grad)
	st := &s.shards[req.Shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	if !finite {
		st.rejected++
		return PushReply{}, fmt.Errorf("ps: push of a non-finite gradient to shard %d refused", req.Shard)
	}
	if req.Seq <= st.lastSeq[req.Worker] {
		st.dups++
		return PushReply{Duplicate: true, Version: st.version}, nil
	}
	st.lastSeq[req.Worker] = req.Seq
	stale := st.version - req.Basis
	if stale < 0 {
		stale = 0
	}
	switch s.mode {
	case ModeAsync:
		scale := s.step / float64(req.Count)
		for j, g := range req.Grad {
			s.params[lo+j] -= scale * g
		}
		st.version++
	default: // ModeSync: defer to CloseRound
		for j, g := range req.Grad {
			st.acc[j] += g
		}
		st.accN += req.Count
	}
	st.pushes++
	if stale > 0 {
		st.stalePushes++
	}
	st.staleSum += stale
	return PushReply{Applied: true, Staleness: stale, Version: st.version}, nil
}

// CloseRound ends one synchronous round: each shard applies the averaged
// accumulated gradient, params -= step * acc/roundN, where roundN is the
// number of examples the full round *should* have contributed. Dividing by
// the intended rather than the received count is the received-fraction
// scaling rule of the in-process sync barrier (DESIGN §11): missing
// contributions shrink the step instead of inflating their peers. The
// return value is the total example shortfall summed over shards,
// Σ_k (roundN - received_k), for the caller's chaos accounting.
func (s *Server) CloseRound(roundN int) (missing int64, err error) {
	if s.mode != ModeSync {
		return 0, fmt.Errorf("ps: CloseRound on %s-mode server", s.mode)
	}
	if roundN < 1 {
		return 0, fmt.Errorf("ps: CloseRound over %d examples", roundN)
	}
	scale := s.step / float64(roundN)
	for k := range s.shards {
		lo := s.sh.bounds[k]
		st := &s.shards[k]
		st.mu.Lock()
		if st.accN > 0 {
			for j, g := range st.acc {
				s.params[lo+j] -= scale * g
				st.acc[j] = 0
			}
		}
		if st.accN < roundN {
			missing += int64(roundN - st.accN)
		}
		st.accN = 0
		st.version++
		st.mu.Unlock()
	}
	return missing, nil
}

// Stats is a point-in-time snapshot of the server's tallies, summed over
// shards. Pushes counts applied contributions only; Duplicates counts
// sequence numbers discarded by the dedupe horizon; Rejected counts pushes
// refused for a non-finite gradient.
type Stats struct {
	Mode         Mode    `json:"mode"`
	Shards       int     `json:"shards"`
	Pulls        int64   `json:"pulls"`
	Pushes       int64   `json:"pushes"`
	Duplicates   int64   `json:"duplicates"`
	Rejected     int64   `json:"rejected"`
	StalePushes  int64   `json:"stale_pushes"`
	StalenessSum int64   `json:"staleness_sum"`
	Versions     []int64 `json:"versions"`
}

// StatsSnapshot sums the per-shard tallies without resetting them.
func (s *Server) StatsSnapshot() Stats {
	out := Stats{Mode: s.mode, Shards: s.sh.NumShards(), Versions: make([]int64, s.sh.NumShards())}
	for k := range s.shards {
		st := &s.shards[k]
		st.mu.Lock()
		out.Pulls += st.pulls
		out.Pushes += st.pushes
		out.Duplicates += st.dups
		out.Rejected += st.rejected
		out.StalePushes += st.stalePushes
		out.StalenessSum += st.staleSum
		out.Versions[k] = st.version
		st.mu.Unlock()
	}
	return out
}

// Drain folds the epoch's tallies into the recorder's ps counters and
// resets them; the engine calls it once per epoch next to the chaos drain.
func (s *Server) Drain(rec obs.Recorder) {
	rec = obs.Or(rec)
	var pulls, pushes, stale, staleSum int64
	for k := range s.shards {
		st := &s.shards[k]
		st.mu.Lock()
		pulls += st.pulls
		pushes += st.pushes
		stale += st.stalePushes
		staleSum += st.staleSum
		st.pulls, st.pushes, st.dups, st.rejected, st.stalePushes, st.staleSum = 0, 0, 0, 0, 0, 0
		st.mu.Unlock()
	}
	if pulls > 0 {
		rec.Add(obs.CounterPSPulls, pulls)
	}
	if pushes > 0 {
		rec.Add(obs.CounterPSPushes, pushes)
	}
	if stale > 0 {
		rec.Add(obs.CounterPSStalePushes, stale)
	}
	if staleSum > 0 {
		rec.Add(obs.CounterPSStalenessSum, staleSum)
	}
}
