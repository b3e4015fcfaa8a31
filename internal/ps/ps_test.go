package ps

import (
	"math"
	"testing"

	"repro/internal/model"
)

// TestShardingStripeAlignment checks that every interior shard boundary
// lands on a cache-line stripe and the shards tile the dimension exactly.
func TestShardingStripeAlignment(t *testing.T) {
	for _, tc := range []struct{ dim, shards int }{
		{55, 4},  // covtype LR: 6.875 stripes, remainder in the last shard
		{64, 4},  // exact stripes, even split
		{64, 3},  // exact stripes, uneven split
		{300, 7}, // w8a LR
		{8, 1},
		{1, 1},
	} {
		sh, err := NewSharding(tc.dim, tc.shards)
		if err != nil {
			t.Fatalf("NewSharding(%d,%d): %v", tc.dim, tc.shards, err)
		}
		if got := sh.Dim(); got != tc.dim {
			t.Fatalf("Dim() = %d, want %d", got, tc.dim)
		}
		prev := 0
		for k := 0; k < sh.NumShards(); k++ {
			lo, hi := sh.Range(k)
			if lo != prev {
				t.Fatalf("dim=%d shards=%d: shard %d starts at %d, want %d (gap/overlap)", tc.dim, tc.shards, k, lo, prev)
			}
			if hi <= lo {
				t.Fatalf("dim=%d shards=%d: shard %d is empty [%d,%d)", tc.dim, tc.shards, k, lo, hi)
			}
			if k < sh.NumShards()-1 && hi%model.StripeWeights != 0 {
				t.Fatalf("dim=%d shards=%d: interior boundary %d not stripe-aligned", tc.dim, tc.shards, hi)
			}
			if got := sh.Width(k); got != hi-lo {
				t.Fatalf("Width(%d) = %d, want %d", k, got, hi-lo)
			}
			prev = hi
		}
		if prev != tc.dim {
			t.Fatalf("dim=%d shards=%d: shards cover [0,%d), want [0,%d)", tc.dim, tc.shards, prev, tc.dim)
		}
		for i := 0; i < tc.dim; i++ {
			k := sh.ShardOf(i)
			lo, hi := sh.Range(k)
			if i < lo || i >= hi {
				t.Fatalf("dim=%d shards=%d: ShardOf(%d) = %d owning [%d,%d)", tc.dim, tc.shards, i, k, lo, hi)
			}
		}
	}
}

// TestShardingClampsToStripes checks the shard count never exceeds the
// stripe count (no empty shards): 10 components are 2 stripes, so asking
// for 16 shards yields 2.
func TestShardingClampsToStripes(t *testing.T) {
	sh, err := NewSharding(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.NumShards(); got != 2 {
		t.Fatalf("NumShards() = %d, want 2 (stripe clamp)", got)
	}
	if lo, hi := sh.Range(1); lo != 8 || hi != 10 {
		t.Fatalf("Range(1) = [%d,%d), want [8,10) remainder shard", lo, hi)
	}
}

// TestShardingRejectsBadInputs checks the error paths.
func TestShardingRejectsBadInputs(t *testing.T) {
	if _, err := NewSharding(0, 4); err == nil {
		t.Fatal("NewSharding(0,4) accepted a zero dimension")
	}
	if _, err := NewSharding(8, 0); err == nil {
		t.Fatal("NewSharding(8,0) accepted a zero shard count")
	}
}

// TestServerAsyncApplyAndStaleness checks apply-on-arrival semantics: each
// push lands immediately, advances the version, and reports staleness as
// versions advanced since the push's basis.
func TestServerAsyncApplyAndStaleness(t *testing.T) {
	sh, _ := NewSharding(8, 1)
	srv := NewServer(ModeAsync, sh, 0.5, 2)
	grad := []float64{2, 0, 0, 0, 0, 0, 0, 0}
	rep, err := srv.Push(PushRequest{Shard: 0, Worker: 0, Seq: 1, Basis: 0, Count: 2, Grad: grad})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied || rep.Staleness != 0 || rep.Version != 1 {
		t.Fatalf("first push reply = %+v, want applied fresh at version 1", rep)
	}
	pull, _ := srv.Pull(0)
	// w -= 0.5 * 2/2 = -0.5 on component 0.
	if got := pull.Params[0]; math.Abs(got-(-0.5)) > 1e-15 {
		t.Fatalf("component 0 = %g after first push, want -0.5", got)
	}
	// Worker 1 pushes against basis 0: one update landed in between.
	rep, err = srv.Push(PushRequest{Shard: 0, Worker: 1, Seq: 1, Basis: 0, Count: 1, Grad: grad})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Staleness != 1 {
		t.Fatalf("stale push reported staleness %d, want 1", rep.Staleness)
	}
	st := srv.StatsSnapshot()
	if st.Pushes != 2 || st.StalePushes != 1 || st.StalenessSum != 1 {
		t.Fatalf("stats = %+v, want 2 pushes / 1 stale / sum 1", st)
	}
}

// TestServerSyncReceivedFractionScaling checks the barrier aggregation
// rule: the round divides by the intended example count, so a missing
// worker shrinks the step instead of inflating its peers, and the missing
// contributions come back as shortfall.
func TestServerSyncReceivedFractionScaling(t *testing.T) {
	sh, _ := NewSharding(8, 1)
	full := NewServer(ModeSync, sh, 1.0, 2)
	short := NewServer(ModeSync, sh, 1.0, 2)
	grad := []float64{4, 0, 0, 0, 0, 0, 0, 0}
	push := func(s *Server, worker int) {
		t.Helper()
		if _, err := s.Push(PushRequest{Shard: 0, Worker: worker, Seq: 1, Basis: 0, Count: 2, Grad: grad}); err != nil {
			t.Fatal(err)
		}
	}
	push(full, 0)
	push(full, 1)
	push(short, 0) // worker 1's contribution lost

	missing, err := full.CloseRound(4)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 0 {
		t.Fatalf("full round reported %d missing contributions", missing)
	}
	missing, err = short.CloseRound(4)
	if err != nil {
		t.Fatal(err)
	}
	if missing != 2 {
		t.Fatalf("short round reported %d missing contributions, want 2", missing)
	}
	var fw, sw [8]float64
	full.Snapshot(fw[:])
	short.Snapshot(sw[:])
	// Full round: w -= 1.0 * (4+4)/4 = -2; short round: w -= 1.0 * 4/4 = -1
	// (half the contributions, half the step — not the same step on fewer
	// examples).
	if math.Abs(fw[0]-(-2)) > 1e-15 || math.Abs(sw[0]-(-1)) > 1e-15 {
		t.Fatalf("full/short component 0 = %g / %g, want -2 / -1", fw[0], sw[0])
	}
}

// TestServerDuplicatePushIdempotent checks the sequence-number dedupe: a
// retransmitted push is discarded without touching the model, in both
// modes, and the duplicate is tallied.
func TestServerDuplicatePushIdempotent(t *testing.T) {
	for _, mode := range []Mode{ModeAsync, ModeSync} {
		sh, _ := NewSharding(8, 1)
		srv := NewServer(mode, sh, 0.5, 1)
		grad := []float64{2, 0, 0, 0, 0, 0, 0, 0}
		req := PushRequest{Shard: 0, Worker: 0, Seq: 7, Basis: 0, Count: 1, Grad: grad}
		if _, err := srv.Push(req); err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Push(req) // identical retransmission
		if err != nil {
			t.Fatal(err)
		}
		if rep.Applied || !rep.Duplicate {
			t.Fatalf("mode %s: duplicate push reply = %+v, want discarded", mode, rep)
		}
		st := srv.StatsSnapshot()
		if st.Pushes != 1 || st.Duplicates != 1 {
			t.Fatalf("mode %s: stats = %+v, want 1 push / 1 duplicate", mode, st)
		}
		if mode == ModeSync {
			if _, err := srv.CloseRound(1); err != nil {
				t.Fatal(err)
			}
		}
		var w [8]float64
		srv.Snapshot(w[:])
		if math.Abs(w[0]-(-1)) > 1e-15 { // exactly one application of 0.5*2/1
			t.Fatalf("mode %s: component 0 = %g, want -1 (applied once)", mode, w[0])
		}
	}
}

// TestServerRefusesNonFiniteGradient: a gradient with a NaN or Inf component
// never reaches the accumulator or the model in either mode, does not advance
// the dedupe horizon (the worker may re-send the same Seq repaired), and is
// counted.
func TestServerRefusesNonFiniteGradient(t *testing.T) {
	for _, mode := range []Mode{ModeAsync, ModeSync} {
		sh, _ := NewSharding(8, 1)
		srv := NewServer(mode, sh, 0.5, 1)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			grad := []float64{2, 0, 0, bad, 0, 0, 0, 0}
			if rep, err := srv.Push(PushRequest{Shard: 0, Worker: 0, Seq: 1, Count: 1, Grad: grad}); err == nil || rep.Applied {
				t.Fatalf("mode %s: push carrying %g returned %+v, %v; want a refusal", mode, bad, rep, err)
			}
		}
		if st := srv.StatsSnapshot(); st.Rejected != 3 || st.Pushes != 0 || st.Duplicates != 0 {
			t.Fatalf("mode %s: stats = %+v, want 3 rejected and nothing else", mode, st)
		}
		// Same Seq, finite this time: accepted, so the horizon had not moved.
		rep, err := srv.Push(PushRequest{Shard: 0, Worker: 0, Seq: 1, Count: 1, Grad: []float64{2, 0, 0, 0, 0, 0, 0, 0}})
		if err != nil || !rep.Applied {
			t.Fatalf("mode %s: finite push after the refusals = %+v, %v", mode, rep, err)
		}
		if mode == ModeSync {
			if _, err := srv.CloseRound(1); err != nil {
				t.Fatal(err)
			}
		}
		var w [8]float64
		srv.Snapshot(w[:])
		if want := [8]float64{-1}; w != want {
			t.Fatalf("mode %s: model = %v, want only the finite push applied (%v)", mode, w, want)
		}
	}
}

// TestServerRejectsMalformedTraffic checks the validation paths workers
// and the HTTP layer rely on.
func TestServerRejectsMalformedTraffic(t *testing.T) {
	sh, _ := NewSharding(16, 2)
	srv := NewServer(ModeAsync, sh, 0.1, 1)
	if _, err := srv.Pull(2); err == nil {
		t.Fatal("pull of shard 2 of 2 accepted")
	}
	if _, err := srv.Push(PushRequest{Shard: 0, Worker: 1, Seq: 1, Count: 1, Grad: make([]float64, 8)}); err == nil {
		t.Fatal("push from unknown worker accepted")
	}
	if _, err := srv.Push(PushRequest{Shard: 0, Worker: 0, Seq: 1, Count: 1, Grad: make([]float64, 3)}); err == nil {
		t.Fatal("push with wrong gradient width accepted")
	}
	if _, err := srv.Push(PushRequest{Shard: 0, Worker: 0, Seq: 1, Count: 0, Grad: make([]float64, 8)}); err == nil {
		t.Fatal("push summing zero examples accepted")
	}
	if _, err := srv.CloseRound(1); err == nil {
		t.Fatal("CloseRound accepted on an async server")
	}
}
