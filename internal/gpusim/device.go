// Package gpusim is a functional-plus-analytic simulator of a SIMT GPU — the
// substitute for the NVIDIA Tesla K80 the paper measures on, which cannot be
// programmed from pure Go.
//
// It has two halves that mirror the paper's two performance axes:
//
//   - A functional execution engine (RunAsyncEpoch, RunAsyncEpochShared:
//     one warp-round loop over the kernel layouts) that executes
//     asynchronous-SGD kernels with real SIMT semantics: threads grouped in
//     32-lane warps run in lockstep, every resident warp computes its lane
//     gradients from the round-entry model snapshot, and unsynchronised
//     lane writes to the same model component lose updates (or are combined
//     first when the warp-shuffle optimisation is on). Statistical
//     efficiency measured on this engine is therefore a real measurement of
//     the GPU update semantics, not an estimate.
//
//   - An analytic cost model (Cost* methods) that accounts compute cycles,
//     global-memory transactions (via the coalescing rule: one transaction
//     per distinct aligned segment touched by a warp), warp divergence
//     (a warp retires at the pace of its slowest lane) and kernel launch
//     overhead, parameterised by the hw.GPUSpec. Hardware efficiency in the
//     reproduced tables comes from this model.
package gpusim

import (
	"fmt"

	"repro/internal/hw"
)

// Device is a simulated GPU.
type Device struct {
	Spec *hw.GPUSpec
	// SparseL2Gather enables serving scattered gathers from L2 at sector
	// granularity when the gathered vector fits (ViennaCL's sparse-kernel
	// optimisation). Kernels "optimized for dense data" — the paper's
	// characterisation of BIDMach's — lack it.
	SparseL2Gather bool
}

// NewDevice returns a Device for the given hardware spec.
func NewDevice(spec *hw.GPUSpec) *Device {
	if spec.WarpSize <= 0 || spec.MPs <= 0 {
		panic(fmt.Sprintf("gpusim: invalid spec %+v", spec))
	}
	return &Device{Spec: spec, SparseL2Gather: true}
}

// K80 returns a Device configured as the paper's Tesla K80.
func K80() *Device { return NewDevice(hw.PaperGPU()) }

// Cost describes the modeled execution of one kernel (or one epoch of
// kernels) on the device.
type Cost struct {
	Seconds      float64 // modeled wall-clock kernel time
	Flops        float64 // useful floating point operations
	LockstepOps  float64 // lane-slots issued including divergence waste
	Bytes        float64 // global-memory traffic implied by the transactions
	WriteBytes   float64 // the model-write share of Bytes (update-phase attribution)
	Transactions int64   // 32-byte global memory transactions
	Launches     int64   // kernel launches (fixed overhead each)
}

// finish computes Seconds for a kernel from accumulated work using a
// roofline: the kernel is bound by either compute throughput (lockstep ops)
// or memory bandwidth (transaction bytes), plus launch overhead.
func (d *Device) finish(c Cost) Cost {
	s := d.Spec
	compute := c.LockstepOps / s.PeakFlops()
	memory := c.Bytes / s.GlobalBandwidthBPS
	t := compute
	if memory > t {
		t = memory
	}
	// A kernel cannot beat one global-memory round trip.
	if c.Bytes > 0 && t < s.GlobalLatencyNS*1e-9 {
		t = s.GlobalLatencyNS * 1e-9
	}
	c.Seconds = t + float64(c.Launches)*s.KernelLaunchNS*1e-9
	return c
}

// Rescale multiplies the data-dependent work of a cost by f (flops, bytes,
// transactions) while keeping launch overheads fixed, and re-derives the
// kernel time. The experiment harness uses it to price epochs measured on a
// scaled-down dataset at the paper's full dataset size.
func (d *Device) Rescale(c Cost, f float64) Cost {
	return d.finish(Cost{
		Flops:        c.Flops * f,
		LockstepOps:  c.LockstepOps * f,
		Bytes:        c.Bytes * f,
		WriteBytes:   c.WriteBytes * f,
		Transactions: int64(float64(c.Transactions) * f),
		Launches:     c.Launches,
	})
}

// CostGemm models a tiled dense matrix product C(m x n) = A(m x k)*B(k x n).
// Dense GEMM coalesces perfectly and reuses tiles through shared memory, so
// it is compute bound for all but tiny shapes.
func (d *Device) CostGemm(m, k, n int) Cost {
	flops := 2 * float64(m) * float64(k) * float64(n)
	// Shared-memory 32x32 tiling: with enough reuse each operand element
	// is read from global memory roughly (other-dim / 32) times; we model
	// the common regime where tiling brings that down to one read of A
	// and B plus one write of C, which keeps large GEMM compute bound and
	// small GEMM launch/memory bound — the behaviour the paper observes.
	bytes := 8 * (float64(m)*float64(k) + float64(k)*float64(n) + float64(m)*float64(n))
	c := Cost{
		Flops:        flops,
		LockstepOps:  flops, // dense GEMM keeps warps converged
		Bytes:        bytes,
		Transactions: int64(bytes / float64(d.Spec.TransactionBytes)),
		Launches:     1,
	}
	return d.finish(c)
}

// CostGemv models a dense matrix-vector product y = A(m x n)*x: streaming,
// memory bound, fully coalesced.
func (d *Device) CostGemv(m, n int) Cost {
	flops := 2 * float64(m) * float64(n)
	bytes := 8 * (float64(m)*float64(n) + float64(n) + float64(m))
	c := Cost{
		Flops:        flops,
		LockstepOps:  flops,
		Bytes:        bytes,
		Transactions: int64(bytes / float64(d.Spec.TransactionBytes)),
		Launches:     1,
	}
	return d.finish(c)
}

// CostElementwise models an element-wise kernel over n elements reading r
// and writing w streams with fpe FLOPs per element.
func (d *Device) CostElementwise(n int, reads, writes, fpe int) Cost {
	flops := float64(n) * float64(fpe)
	bytes := 8 * float64(n) * float64(reads+writes)
	c := Cost{
		Flops:        flops,
		LockstepOps:  flops,
		Bytes:        bytes,
		Transactions: int64(bytes / float64(d.Spec.TransactionBytes)),
		Launches:     1,
	}
	return d.finish(c)
}
