package obs

import (
	"io"
	"math"
	"strconv"
	"sync/atomic"
)

// LatencyBuckets is the one latency ladder (upper bounds in seconds):
// log-spaced, 8 buckets per decade from 1µs to 10s, plus the overflow
// bucket every Hist adds. The resolution (~33% per step) is enough for the
// p50/p99 the reports and gates compare; the serving histograms and the SLO
// engine's windows both count in it.
var LatencyBuckets = func() []float64 {
	var b []float64
	for e := -6; e < 1; e++ {
		decade := math.Pow(10, float64(e))
		for i := 0; i < 8; i++ {
			b = append(b, decade*math.Pow(10, float64(i)/8))
		}
	}
	return append(b, 10)
}()

// BucketIndex returns the bucket v falls in: the index of the first upper
// bound >= v, or len(bounds) (the overflow bucket) when v exceeds them all
// or is NaN.
func BucketIndex(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Hist is a fixed-bound histogram with atomic buckets; Record is wait-free
// so the request path never serialises on statistics.
type Hist struct {
	bounds []float64 // upper bounds, ascending; len(counts) == len(bounds)+1
	counts []atomic.Int64
	sum    atomicFloat
	max    atomicFloat
}

// NewHist returns an empty histogram over the given ascending upper bounds.
func NewHist(bounds []float64) *Hist {
	return &Hist{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Record adds one sample.
func (h *Hist) Record(v float64) {
	h.counts[BucketIndex(h.bounds, v)].Add(1)
	h.sum.Add(v)
	h.max.Max(v)
}

// Count returns the total sample count.
func (h *Hist) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Mean returns the sample mean (0 when empty).
func (h *Hist) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / float64(n)
}

// Max returns the largest recorded sample (0 when empty).
func (h *Hist) Max() float64 { return h.max.Load() }

// Quantile returns an upper-bound estimate of the p-quantile (p in [0,1]):
// the upper bound of the bucket holding the p-th sample (the recorded max
// for the overflow bucket). 0 when empty.
func (h *Hist) Quantile(p float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max.Load()
		}
	}
	return h.max.Load()
}

// WriteProm renders h as one standard Prometheus histogram family:
// cumulative `le` buckets plus _sum and _count. Bucket reads are not atomic
// as a set — concurrent Records can land between loads — which only means
// the rendered cumulative counts may lag each other by in-flight samples,
// the same eventual consistency every scraped histogram has.
func (h *Hist) WriteProm(w io.Writer, name, help string) {
	PromFamily(w, name, "histogram", help)
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		PromSample(w, name+"_bucket", cum, "le", strconv.FormatFloat(ub, 'g', -1, 64))
	}
	cum += h.counts[len(h.bounds)].Load()
	PromSample(w, name+"_bucket", cum, "le", "+Inf")
	PromSample(w, name+"_sum", h.sum.Load())
	PromSample(w, name+"_count", cum)
}

// atomicFloat is a float64 with atomic Add and monotonic Max via CAS on the
// bit pattern (the same discipline as model.AtomicUpdater).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
