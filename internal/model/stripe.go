package model

import "unsafe"

// Cache-line layout of model vectors. Vectors that several workers write
// (the shared Hogwild model, the replica engines' private copies, the
// parameter server's shard store) are allocated 64-byte aligned, so that
// stripe k of StripeWeights float64 components occupies exactly cache line k:
// replicas never share a line, and the parameter server cuts its shards on
// stripe boundaries.

// StripeWeights is the number of float64 model components per 64-byte cache
// line.
const StripeWeights = 8

// cacheLine is the assumed cache-line size in bytes.
const cacheLine = 64

// AlignedVec returns a zeroed []float64 of length n whose backing array
// starts on a 64-byte boundary, so model stripe k coincides with cache line
// k. The Go allocator only guarantees 8-byte alignment for float64 slices;
// this over-allocates by up to StripeWeights-1 elements and re-slices.
func AlignedVec(n int) []float64 {
	if n <= 0 {
		return nil
	}
	buf := make([]float64, n+StripeWeights-1)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % cacheLine; rem != 0 {
		off = int((cacheLine - rem) / unsafe.Sizeof(float64(0)))
	}
	return buf[off : off+n : off+n]
}
