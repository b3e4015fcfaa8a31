package gpusim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTransactionsCoalesced(t *testing.T) {
	// 32 consecutive float64 indices = 32*8 bytes = 8 transactions of 32B.
	idx := make([]int64, 32)
	for i := range idx {
		idx[i] = int64(i)
	}
	if got := Transactions(idx, 8, 32); got != 8 {
		t.Fatalf("coalesced = %d transactions, want 8", got)
	}
}

func TestTransactionsScattered(t *testing.T) {
	// 32 indices each in a distinct segment: one transaction each.
	idx := make([]int64, 32)
	for i := range idx {
		idx[i] = int64(i * 100)
	}
	if got := Transactions(idx, 8, 32); got != 32 {
		t.Fatalf("scattered = %d transactions, want 32", got)
	}
}

func TestTransactionsDuplicatesMerge(t *testing.T) {
	idx := []int64{5, 5, 5, 6, 7} // all within segment 1 (indices 4..7)
	if got := Transactions(idx, 8, 32); got != 1 {
		t.Fatalf("duplicates = %d transactions, want 1", got)
	}
}

func TestTransactionsEmpty(t *testing.T) {
	if got := Transactions(nil, 8, 32); got != 0 {
		t.Fatalf("empty = %d, want 0", got)
	}
}

func TestTransactionsLargeElements(t *testing.T) {
	// 64-byte elements with 32-byte transactions: 2 per element.
	if got := Transactions([]int64{0, 1}, 64, 32); got != 4 {
		t.Fatalf("large elems = %d, want 4", got)
	}
}

func TestTransactionsInvalidSizesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero sizes did not panic")
		}
	}()
	Transactions([]int64{1}, 0, 32)
}

func TestTransactionsBounds(t *testing.T) {
	// Property: ceil(distinct/4) <= tx <= distinct for float64/32B.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		idx := make([]int64, len(raw))
		uniq := map[int64]bool{}
		for i, v := range raw {
			idx[i] = int64(v)
			uniq[int64(v)] = true
		}
		tx := Transactions(idx, 8, 32)
		n := int64(len(uniq))
		lo := (n + 3) / 4
		return tx >= lo && tx <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionsSortInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := make([]int64, 64)
	for i := range idx {
		idx[i] = int64(rng.Intn(1000))
	}
	a := Transactions(idx, 8, 32)
	sorted := append([]int64(nil), idx...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	b := Transactions(sorted, 8, 32)
	if a != b {
		t.Fatalf("order-dependent transactions: %d vs %d", a, b)
	}
}

func TestK80Spec(t *testing.T) {
	d := K80()
	if got := d.Spec.MPs * d.Spec.CoresPerMP; got != 2496 {
		t.Fatalf("K80 cores = %d, want 2496 (paper Fig. 5)", got)
	}
	if d.Spec.WarpSize != 32 {
		t.Fatalf("warp size = %d", d.Spec.WarpSize)
	}
	if d.Spec.MaxResidentWarps() != 13*2048/32 {
		t.Fatalf("resident warps = %d", d.Spec.MaxResidentWarps())
	}
}

func TestCostGemmScaling(t *testing.T) {
	d := K80()
	small := d.CostGemm(64, 64, 64)
	big := d.CostGemm(512, 512, 512)
	if big.Seconds <= small.Seconds {
		t.Fatal("bigger GEMM not slower")
	}
	if big.Flops != 2*512*512*512 {
		t.Fatalf("GEMM flops = %v", big.Flops)
	}
	// Large GEMM should approach compute bound: modeled time within 10x
	// of flops/peak.
	ideal := big.Flops / d.Spec.PeakFlops()
	if big.Seconds > 10*ideal {
		t.Fatalf("large GEMM too slow: %v vs ideal %v", big.Seconds, ideal)
	}
}

func TestCostLaunchOverheadFloor(t *testing.T) {
	d := K80()
	c := d.CostElementwise(1, 1, 1, 1)
	if c.Seconds < d.Spec.KernelLaunchNS*1e-9 {
		t.Fatalf("tiny kernel %vs beats launch overhead", c.Seconds)
	}
}

func TestCostMonotonicInSize(t *testing.T) {
	d := K80()
	prev := 0.0
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
		c := d.CostElementwise(n, 2, 1, 4)
		if c.Seconds < prev {
			t.Fatalf("elementwise cost not monotone at n=%d", n)
		}
		prev = c.Seconds
	}
}

// denseLane emulates a dense-model update: every lane touches all dim
// components with delta 1.
func denseLane(dim int) LaneFunc {
	return func(item int, emit func(int, float64)) {
		for j := 0; j < dim; j++ {
			emit(j, 1)
		}
	}
}

func TestAsyncEpochDenseConflicts(t *testing.T) {
	d := K80()
	items := make([]int, 256)
	for i := range items {
		items[i] = i
	}
	w := make([]float64, 8)
	st := d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: 8}, denseLane(8),
		func(idx int, delta float64) { w[idx] += delta })
	// 256 items x 8 components emitted.
	if st.Updates != 256*8 {
		t.Fatalf("updates = %d, want %d", st.Updates, 256*8)
	}
	// Every warp has 32 lanes writing the same 8 components: 31/32 of
	// updates lost intra-warp; then 7 of 8 warps lose inter-warp.
	if st.LostIntra == 0 || st.LostInter == 0 {
		t.Fatalf("dense updates produced no conflicts: %+v", st)
	}
	if st.Applied+st.LostIntra+st.LostInter != st.Updates {
		t.Fatalf("conflict accounting leak: %+v", st)
	}
	// Model received exactly the applied updates.
	var total float64
	for _, v := range w {
		total += v
	}
	if int64(total) != st.Applied {
		t.Fatalf("applied %d but model absorbed %v", st.Applied, total)
	}
}

func TestAsyncEpochCombineEliminatesIntraWarpLoss(t *testing.T) {
	d := K80()
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	w := make([]float64, 8)
	st := d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: 2, Combine: true}, denseLane(8),
		func(idx int, delta float64) { w[idx] += delta })
	if st.LostIntra != 0 {
		t.Fatalf("combine left intra-warp losses: %+v", st)
	}
	if st.LostInter == 0 {
		t.Fatal("two warps on one model should conflict inter-warp")
	}
}

func TestAsyncEpochDisjointNoConflicts(t *testing.T) {
	// Each item touches its own component: no conflicts possible.
	d := K80()
	items := make([]int, 128)
	for i := range items {
		items[i] = i
	}
	w := make([]float64, 128)
	st := d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: 4},
		func(item int, emit func(int, float64)) { emit(item, 2) },
		func(idx int, delta float64) { w[idx] += delta })
	if st.LostIntra != 0 || st.LostInter != 0 {
		t.Fatalf("disjoint updates conflicted: %+v", st)
	}
	if st.Applied != 128 {
		t.Fatalf("applied = %d, want 128", st.Applied)
	}
	for i, v := range w {
		if v != 2 {
			t.Fatalf("w[%d] = %v, want 2", i, v)
		}
	}
}

func TestAsyncEpochProcessesEveryItem(t *testing.T) {
	d := K80()
	for _, n := range []int{1, 31, 32, 33, 100, 1000} {
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		visited := make([]bool, n)
		d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: 3},
			func(item int, emit func(int, float64)) { visited[item] = true },
			func(idx int, delta float64) {})
		for i, v := range visited {
			if !v {
				t.Fatalf("n=%d: item %d not visited", n, i)
			}
		}
	}
}

func TestAsyncEpochEmptyItems(t *testing.T) {
	d := K80()
	st := d.RunAsyncEpoch(nil, AsyncConfig{}, denseLane(4), func(int, float64) {})
	if st.Updates != 0 || st.Rounds != 0 {
		t.Fatalf("empty epoch did work: %+v", st)
	}
	if st.Cost.Seconds <= 0 {
		t.Fatal("empty epoch should still pay the launch overhead")
	}
}

func TestAsyncEpochScatteredCostsMoreThanDense(t *testing.T) {
	// Same number of updates, but scattered indices need more
	// transactions than clustered ones — the coalescing effect the paper
	// blames for sparse async GPU slowness.
	d := K80()
	items := make([]int, 512)
	for i := range items {
		items[i] = i
	}
	clustered := d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: 8},
		func(item int, emit func(int, float64)) {
			for j := 0; j < 16; j++ {
				emit(j, 1) // all lanes share 16 hot components
			}
		}, func(int, float64) {})
	scattered := d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: 8},
		func(item int, emit func(int, float64)) {
			for j := 0; j < 16; j++ {
				emit(item*977+j*131071, 1) // spread over a huge model
			}
		}, func(int, float64) {})
	if scattered.Cost.Transactions <= clustered.Cost.Transactions {
		t.Fatalf("scattered tx %d <= clustered tx %d",
			scattered.Cost.Transactions, clustered.Cost.Transactions)
	}
	if scattered.Cost.Seconds <= clustered.Cost.Seconds {
		t.Fatalf("scattered %v <= clustered %v seconds",
			scattered.Cost.Seconds, clustered.Cost.Seconds)
	}
}

func TestAsyncEpochDivergenceCost(t *testing.T) {
	// One long lane per warp forces the whole warp to wait: lockstep ops
	// exceed useful flops.
	d := K80()
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	st := d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: 2},
		func(item int, emit func(int, float64)) {
			n := 1
			if item%32 == 0 {
				n = 64 // one heavy lane per warp
			}
			for j := 0; j < n; j++ {
				emit(j, 1)
			}
		}, func(int, float64) {})
	if st.Cost.LockstepOps <= st.Cost.Flops {
		t.Fatalf("divergence not penalised: lockstep %v <= flops %v",
			st.Cost.LockstepOps, st.Cost.Flops)
	}
}

func TestAsyncEpochStalenessGrowsWithWarps(t *testing.T) {
	// With more resident warps, more updates are computed against stale
	// snapshots, so fewer land (inter-warp last-wins) — the concurrency
	// floor the paper describes.
	d := K80()
	items := make([]int, 1024)
	for i := range items {
		items[i] = i
	}
	lost := func(maxWarps int) int64 {
		st := d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: maxWarps}, denseLane(16),
			func(int, float64) {})
		return st.LostInter
	}
	if lost(16) <= lost(1) {
		t.Fatalf("inter-warp losses did not grow with warps: %d vs %d", lost(16), lost(1))
	}
}
