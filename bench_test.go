package parsgd

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gpusim"
	"repro/internal/linalg"
	"repro/internal/model"
)

// Table/figure benchmarks: each regenerates one experiment of the paper at a
// reduced dataset scale (the modeled times inside are priced at full scale)
// and reports the headline quantity as a custom metric. Run a single
// experiment with e.g.
//
//	go test -bench BenchmarkTable2SyncSGD -benchtime 1x
//
// The cmd/sgdbench binary prints the full paper-style rows.

// benchOpts is the scale used by the experiment benchmarks: large enough for
// the shapes to hold, small enough for a laptop run.
func benchOpts(tasks, datasets []string) bench.Options {
	return bench.Options{
		MaxN:          800,
		Datasets:      datasets,
		Tasks:         tasks,
		MaxEpochs:     100,
		SyncMaxEpochs: 900,
		ProbeEpochs:   4,
		OptEpochs:     20,
	}
}

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchOpts(nil, nil))
		rows := h.Table1()
		if len(rows) != 5 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

func BenchmarkTable2SyncSGD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchOpts([]string{"lr"}, []string{"covtype", "w8a", "news"}))
		rows := h.Table2()
		var maxSpeedup float64
		for _, r := range rows {
			if r.SpeedupParGPU > maxSpeedup {
				maxSpeedup = r.SpeedupParGPU
			}
		}
		b.ReportMetric(maxSpeedup, "max-par/gpu-speedup")
	}
}

func BenchmarkTable3AsyncSGD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchOpts([]string{"lr"}, []string{"covtype", "news"}))
		rows := h.Table3()
		for _, r := range rows {
			if r.Dataset == "news" {
				b.ReportMetric(r.SpeedupSeqPar, "news-seq/par-speedup")
			}
		}
	}
}

func BenchmarkTable3AsyncMLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchOpts([]string{"mlp"}, []string{"w8a"}))
		rows := h.Table3()
		for _, r := range rows {
			b.ReportMetric(r.SpeedupGPUPar, "gpu/par-iter-ratio")
		}
	}
}

func BenchmarkFig6MLPScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts([]string{"mlp"}, []string{"real-sim"})
		opts.MaxN = 256
		h := bench.New(opts)
		points := h.Fig6()
		b.ReportMetric(points[len(points)-1].SpeedupSeqPar, "largest-net-seq/par")
	}
}

func BenchmarkFig7SyncVsAsync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchOpts([]string{"lr"}, []string{"w8a", "covtype"}))
		curves := h.Fig7()
		var asyncWins float64
		for _, c := range curves {
			if c.Winner == "async/cpu" {
				asyncWins++
			}
		}
		b.ReportMetric(asyncWins, "async-wins")
	}
}

func BenchmarkFig8SpeedupLRSVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchOpts([]string{"lr", "svm"}, []string{"rcv1"}))
		rows := h.Fig8()
		b.ReportMetric(rows[0].OursSync/rows[0].Framework, "ours-vs-bidmach")
	}
}

func BenchmarkFig9SpeedupMLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchOpts([]string{"mlp"}, []string{"real-sim"}))
		rows := h.Fig9()
		b.ReportMetric(rows[0].OursSync/rows[0].Framework, "ours-vs-tf")
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationWarpShuffle quantifies the warp-shuffle conflict
// reduction (paper Section IV-B) on dense data.
func BenchmarkAblationWarpShuffle(b *testing.B) {
	spec, _ := data.Lookup("covtype")
	ds := data.Generate(spec.Scaled(1000.0 / float64(spec.N)))
	m := model.NewLR(ds.D())
	for i := 0; i < b.N; i++ {
		plain := core.NewGPUHogwild(m, ds, 0.1)
		comb := core.NewGPUHogwild(m, ds, 0.1)
		comb.Combine = true
		w1 := m.InitParams(1)
		w2 := m.InitParams(1)
		plain.RunEpoch(w1)
		comb.RunEpoch(w2)
		ps, cs := plain.LastStats(), comb.LastStats()
		b.ReportMetric(float64(ps.LostIntra+ps.LostInter)/float64(ps.Updates)*100, "plain-lost-%")
		b.ReportMetric(float64(cs.LostInter)/float64(cs.Updates)*100, "shuffle-lost-%")
	}
}

// BenchmarkAblationSharedMemoryGPU compares the flat asynchronous GPU kernel
// with the extended-version shared-memory replica variant on a small model.
func BenchmarkAblationSharedMemoryGPU(b *testing.B) {
	spec, _ := data.Lookup("w8a")
	ds := data.Generate(spec.Scaled(1000.0 / float64(spec.N)))
	m := model.NewLR(ds.D())
	for i := 0; i < b.N; i++ {
		flat := core.NewGPUHogwild(m, ds, 0.5)
		shared := core.NewGPUHogwild(m, ds, 0.5)
		shared.SharedMemory = true
		w1 := m.InitParams(1)
		w2 := m.InitParams(1)
		tf := flat.RunEpoch(w1)
		ts := shared.RunEpoch(w2)
		b.ReportMetric(tf/ts, "sharedmem-iter-speedup")
	}
}

// BenchmarkAblationBatchSize sweeps the Hogbatch mini-batch size (the
// paper fixes 512) and reports the modeled iteration-time spread.
func BenchmarkAblationBatchSize(b *testing.B) {
	spec, _ := data.Lookup("w8a")
	ds := data.Generate(spec.Scaled(1500.0 / float64(spec.N)))
	mds, err := data.ForMLP(ds, spec)
	if err != nil {
		b.Fatal(err)
	}
	m := model.NewMLPFor(spec)
	for i := 0; i < b.N; i++ {
		var t128, t512 float64
		for _, batch := range []int{128, 512} {
			e := core.NewHogbatch(m, mds, 0.1, core.HogbatchGPU)
			e.Batch = batch
			w := m.InitParams(1)
			sec := e.RunEpoch(w)
			if batch == 128 {
				t128 = sec
			} else {
				t512 = sec
			}
		}
		// Smaller batches mean more per-batch dispatch per epoch.
		b.ReportMetric(t128/t512, "batch128-vs-512-iter-ratio")
	}
}

// BenchmarkAblationWarpLayout compares the two asynchronous GPU kernel
// layouts (one example per lane vs one example per warp) in conflict rate
// and modeled iteration time on dense data.
func BenchmarkAblationWarpLayout(b *testing.B) {
	spec, _ := data.Lookup("covtype")
	ds := data.Generate(spec.Scaled(1000.0 / float64(spec.N)))
	m := model.NewLR(ds.D())
	for i := 0; i < b.N; i++ {
		lanePer := core.NewGPUHogwild(m, ds, 0.1)
		warpPer := core.NewGPUHogwild(m, ds, 0.1)
		warpPer.WarpPerExample = true
		w1 := m.InitParams(1)
		w2 := m.InitParams(1)
		t1 := lanePer.RunEpoch(w1)
		t2 := warpPer.RunEpoch(w2)
		l1 := lanePer.LastStats()
		l2 := warpPer.LastStats()
		b.ReportMetric(float64(l1.LostIntra+l1.LostInter)/float64(l1.Updates)*100, "lane-lost-%")
		b.ReportMetric(float64(l2.LostInter)/float64(l2.Updates)*100, "warp-lost-%")
		b.ReportMetric(t2/t1, "warp-vs-lane-iter")
	}
}

// Kernel micro-benchmarks (real wall-clock of the Go implementations).

func BenchmarkKernelSpMV(b *testing.B) {
	spec, _ := data.Lookup("rcv1")
	ds := data.Generate(spec.Scaled(2000.0 / float64(spec.N)))
	x := make([]float64, ds.D())
	y := make([]float64, ds.N())
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.X.MulVec(x, y)
	}
}

func BenchmarkKernelHogwildEpoch(b *testing.B) {
	spec, _ := data.Lookup("news")
	ds := data.Generate(spec.Scaled(1000.0 / float64(spec.N)))
	m := model.NewLR(ds.D())
	e := core.NewHogwild(m, ds, 0.1, 1)
	w := m.InitParams(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunEpoch(w)
	}
}

func BenchmarkKernelGPUAsyncEpoch(b *testing.B) {
	spec, _ := data.Lookup("w8a")
	ds := data.Generate(spec.Scaled(1000.0 / float64(spec.N)))
	m := model.NewLR(ds.D())
	e := core.NewGPUHogwild(m, ds, 0.1)
	w := m.InitParams(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunEpoch(w)
	}
}

func BenchmarkKernelMLPBatchGrad(b *testing.B) {
	spec, _ := data.Lookup("w8a")
	ds := data.Generate(spec.Scaled(1000.0 / float64(spec.N)))
	mds, err := data.ForMLP(ds, spec)
	if err != nil {
		b.Fatal(err)
	}
	m := model.NewMLPFor(spec)
	back := linalg.NewCPU(1)
	w := m.InitParams(1)
	g := make([]float64, m.NumParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BatchGrad(back, w, mds, nil, g)
	}
}

func BenchmarkKernelCoalescingAnalysis(b *testing.B) {
	spec, _ := data.Lookup("real-sim")
	ds := data.Generate(spec.Scaled(2000.0 / float64(spec.N)))
	dev := gpusim.K80()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dev.CostSpMV(ds.X)
	}
}
