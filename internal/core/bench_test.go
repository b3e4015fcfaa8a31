package core

import (
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/pool"
)

// BenchmarkHogwildEmulatedEpoch measures the deterministic emulated
// asynchronous epoch (Threads far above the host core count forces it).
// The in-flight update ring makes its steady state allocation-free where
// the seed allocated two slices per model update.
func BenchmarkHogwildEmulatedEpoch(b *testing.B) {
	ds, _ := smallDataset(b, "w8a", 2000)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.1, 1024)
	w := m.InitParams(1)
	e.RunEpoch(w) // warm perm, ring, scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunEpoch(w)
	}
}

// BenchmarkHogwildConcurrentEpoch measures the real concurrent epoch on the
// pool with nnz-balanced segment chunking.
func BenchmarkHogwildConcurrentEpoch(b *testing.B) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := pool.New(4)
	defer p.Close()
	ds, _ := smallDataset(b, "w8a", 2000)
	m := model.NewLR(ds.D())
	e := NewHogwild(m, ds, 0.1, 4)
	e.Pool = p
	w := m.InitParams(1)
	e.RunEpoch(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunEpoch(w)
	}
}

// BenchmarkHogbatchSeqEpoch measures a sequential mini-batch epoch; with
// the backend-resident BatchScratch its steady state performs no
// per-batch allocations.
func BenchmarkHogbatchSeqEpoch(b *testing.B) {
	ds, _ := smallDataset(b, "w8a", 2000)
	m := model.NewLR(ds.D())
	e := NewHogbatch(m, ds, 0.1, HogbatchSeq)
	e.Batch = 256
	w := m.InitParams(1)
	e.RunEpoch(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunEpoch(w)
	}
}

// BenchmarkLocalSGDEpoch measures a Local-SGD epoch (K=2, H=16) at both ends
// of the write-set merge: real-sim rows touch a sliver of the d = 20 958
// model per round, covtype rows are dense (every round writes all d = 54).
func BenchmarkLocalSGDEpoch(b *testing.B) {
	for _, bc := range []struct{ name, dataset string }{
		{"sparse", "real-sim"},
		{"dense", "covtype"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prev := runtime.GOMAXPROCS(2)
			defer runtime.GOMAXPROCS(prev)
			p := pool.New(2)
			defer p.Close()
			ds, _ := smallDataset(b, bc.dataset, 2000)
			m := model.NewLR(ds.D())
			e := NewLocalSGD(m, ds, 0.1, 2, 16)
			e.Pool = p
			w := m.InitParams(1)
			e.RunEpoch(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunEpoch(w)
			}
		})
	}
}
