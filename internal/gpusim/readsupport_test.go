package gpusim

import "testing"

func TestReadSupportChargesSilentLanes(t *testing.T) {
	// An SVM-like epoch where no lane emits must still pay for reading
	// the examples and the model.
	d := K80()
	items := make([]int, 256)
	for i := range items {
		items[i] = i
	}
	silent := func(item int, emit func(int, float64)) {} // margins satisfied
	without := d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: 4}, silent, func(int, float64) {})
	with := d.RunAsyncEpoch(items, AsyncConfig{
		MaxWarps:    4,
		ReadSupport: func(item int) int { return 50 },
	}, silent, func(int, float64) {})
	if with.Cost.Bytes <= without.Cost.Bytes {
		t.Fatalf("read support not charged: %v <= %v bytes", with.Cost.Bytes, without.Cost.Bytes)
	}
	if with.Cost.Seconds <= without.Cost.Seconds {
		t.Fatalf("read support not slower: %v <= %v", with.Cost.Seconds, without.Cost.Seconds)
	}
	// Same for the warp-per-example layout.
	withWarp := d.RunAsyncEpoch(items, AsyncConfig{
		MaxWarps:       4,
		WarpPerExample: true,
		ReadSupport:    func(item int) int { return 50 },
	}, silent, func(int, float64) {})
	if withWarp.Cost.Bytes <= 0 {
		t.Fatal("warp-per-example read support not charged")
	}
}

func TestReadSupportNoDoubleChargeWhenEmitting(t *testing.T) {
	// When every component is emitted, ReadSupport adds nothing.
	d := K80()
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	emitAll := func(item int, emit func(int, float64)) {
		for j := 0; j < 8; j++ {
			emit(j, 1)
		}
	}
	plain := d.RunAsyncEpoch(items, AsyncConfig{MaxWarps: 2}, emitAll, func(int, float64) {})
	withRS := d.RunAsyncEpoch(items, AsyncConfig{
		MaxWarps:    2,
		ReadSupport: func(item int) int { return 8 },
	}, emitAll, func(int, float64) {})
	if plain.Cost.Bytes != withRS.Cost.Bytes {
		t.Fatalf("double charge: %v vs %v bytes", plain.Cost.Bytes, withRS.Cost.Bytes)
	}
}

// TestSilentAndDroppedLanesCostInEveryLayout runs epochs whose lanes all
// read 50 components and land nothing — margins satisfied, or every update
// dropped by FaultDrop — through each kernel layout. In all of them the
// lockstep slots cover the useful flops (the divergent-warp fraction stays
// in [0, 1]), and the reads cost flops and bytes beyond the shared layout's
// replica load and flush.
func TestSilentAndDroppedLanesCostInEveryLayout(t *testing.T) {
	d := K80()
	items := make([]int, 256)
	for i := range items {
		items[i] = i
	}
	const nParams = 64
	silent := func(int, func(int, float64)) {}
	layouts := []struct {
		name    string
		replica float64 // global bytes of the replica load and flush
		run     func(AsyncConfig) AsyncStats
	}{
		{"lane", 0, func(cfg AsyncConfig) AsyncStats {
			return d.RunAsyncEpoch(items, cfg, silent, func(int, float64) {})
		}},
		{"warp", 0, func(cfg AsyncConfig) AsyncStats {
			cfg.WarpPerExample = true
			return d.RunAsyncEpoch(items, cfg, silent, func(int, float64) {})
		}},
		{"shared", nParams * 8 * 2, func(cfg AsyncConfig) AsyncStats {
			return d.RunAsyncEpochShared(nParams, items, cfg,
				func(int) float64 { return 0 },
				func(item int, _ []float64, emit func(int, float64)) { silent(item, emit) },
				func(int, float64) {})
		}},
	}
	for _, l := range layouts {
		for _, dropped := range []bool{false, true} {
			cfg := AsyncConfig{MaxWarps: 4, ReadSupport: func(int) int { return 50 }}
			if dropped {
				cfg.FaultDrop = func(int) bool { return true }
			}
			st := l.run(cfg)
			c := st.Cost
			if st.Applied != 0 {
				t.Errorf("%s dropped=%v: %d updates landed", l.name, dropped, st.Applied)
			}
			if frac := 1 - c.Flops/c.LockstepOps; !(frac >= 0 && frac <= 1) {
				t.Errorf("%s dropped=%v: divergent fraction %v (flops %v, lockstep %v)",
					l.name, dropped, frac, c.Flops, c.LockstepOps)
			}
			if c.Flops <= 0 || c.Bytes <= l.replica {
				t.Errorf("%s dropped=%v: reads not charged: %v flops, %v bytes (replica %v)",
					l.name, dropped, c.Flops, c.Bytes, l.replica)
			}
		}
	}
}
