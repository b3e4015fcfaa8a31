package gpusim

import "slices"

// LaneFunc computes the update of one training example against the current
// shared model and reports it as (component, delta) pairs through emit. It
// must treat the model as read-only: the executor decides which deltas land,
// when, and which are lost to SIMT write conflicts.
type LaneFunc func(item int, emit func(idx int, delta float64))

// AsyncConfig tunes the simulated asynchronous (Hogwild) kernel, in either
// of its model placements (RunAsyncEpoch, RunAsyncEpochShared).
type AsyncConfig struct {
	// Combine enables the warp-shuffle optimisation the paper mentions
	// (Section IV-B): updates to the same component from lanes of the
	// same warp are summed before the write, eliminating intra-warp lost
	// updates. Inter-warp conflicts remain.
	Combine bool
	// MaxWarps caps the resident warps (0 = the device's occupancy
	// limit). The paper notes this concurrency "is a lower bound that
	// cannot be overcome" for conflicts.
	MaxWarps int
	// FlopsPerElement is the arithmetic per touched model component of
	// one lane update (dot-product multiply-add plus update multiply-add
	// = 4 for the linear models).
	FlopsPerElement int
	// ReadSupport reports how many model components evaluating one item
	// *reads* (the gradient-support size), whether or not an update is
	// emitted. SVM lanes whose margin is satisfied emit nothing but the
	// kernel still gathers the example and the model: each component read
	// beyond those emitted costs half the per-element flops, 12 B of CSR
	// stream and, from global memory, an 8 B gather, and the longest read
	// holds the warp in lockstep. Nil means "reads equal emissions".
	ReadSupport func(item int) int
	// FaultDrop, when non-nil, is consulted once per item before its lane
	// emits: true discards the item's update entirely (the fault-injection
	// hook of internal/chaos). The lane still streams the example and
	// computes the gradient — the cost stays, as for ReadSupport's reads —
	// but no delta lands.
	FaultDrop func(item int) bool
	// WarpPerExample switches the kernel layout: instead of one example
	// per lane (32 concurrent examples per warp, divergent on skewed
	// rows, conflicting on dense ones), the whole warp cooperates on a
	// single example — its nnz are strided across lanes, accesses
	// coalesce, divergence disappears, and there are no intra-warp
	// update conflicts, but 32x fewer examples are in flight. This is
	// the alternative data-access path the paper's extended version
	// explores.
	WarpPerExample bool
}

// AsyncStats reports one simulated epoch of the asynchronous kernel.
type AsyncStats struct {
	Rounds    int64 // lockstep rounds executed
	Updates   int64 // component updates emitted by lanes
	LostIntra int64 // updates lost to intra-warp write conflicts
	LostInter int64 // updates lost to inter-warp write conflicts
	Applied   int64 // component updates that landed in the model
	Dropped   int64 // items discarded by the FaultDrop hook
	Cost      Cost  // modeled kernel time for the epoch
}

// RunAsyncEpoch executes one epoch of a Hogwild-style kernel over the given
// items with SIMT semantics:
//
//   - items are partitioned contiguously over min(len(items), R*32) lanes
//     (or R warps with cfg.WarpPerExample), R being the resident-warp bound;
//   - execution proceeds in lockstep rounds: every resident warp evaluates
//     its next item(s) against the round-entry model snapshot (the executor
//     guarantees apply is not called while lanes run);
//   - within a warp, unsynchronised writes to the same component collide:
//     the last lane wins (or, with cfg.Combine, deltas are summed first);
//   - across warps of the same round, writes to the same component also
//     collide: the last warp wins;
//   - surviving deltas are applied through apply between rounds.
//
// The returned stats carry the conflict counts and the modeled cost
// (divergence-aware compute plus coalescing-derived memory traffic).
func (d *Device) RunAsyncEpoch(items []int, cfg AsyncConfig, lane LaneFunc, apply func(idx int, delta float64)) AsyncStats {
	st, _ := d.runAsync(items, cfg, nil, func(item int, _ []float64, emit func(int, float64)) { lane(item, emit) }, apply)
	return st
}

// RunAsyncEpochShared executes the asynchronous kernel with per-block model
// replication in shared memory — one of the GPU-specific optimisations the
// paper's extended version develops for its asynchronous implementation:
// when the model fits an MP's shared memory (48 KB = 6144 float64 on the
// K80), every thread block keeps a private replica seeded through read, each
// warp's merged writes land in its block's replica at once, and the replicas
// are averaged back through write at the end of the pass. lane evaluates an
// item against its block's replica.
//
// Compared with RunAsyncEpoch this trades statistical efficiency (replicas
// drift apart during the pass, like DimmWitted's PerNode on the CPU) for
// hardware efficiency: the scattered model traffic moves to shared memory
// and only the streaming example data plus one load and flush per block
// touch global memory.
//
// nParams must satisfy nParams*8 <= Spec.SharedMemPerMP, or the call panics
// — the caller is expected to fall back to RunAsyncEpoch.
func (d *Device) RunAsyncEpochShared(nParams int, items []int, cfg AsyncConfig, read func(idx int) float64, lane func(item int, replica []float64, emit func(idx int, delta float64)), write func(idx int, v float64)) AsyncStats {
	if int64(nParams)*8 > d.Spec.SharedMemPerMP {
		panic("gpusim: model does not fit shared memory; use RunAsyncEpoch")
	}
	w := make([]float64, nParams)
	for j := range w {
		w[j] = read(j)
	}
	st, avg := d.runAsync(items, cfg, w, lane, nil)
	for j, v := range avg {
		write(j, v)
	}
	return st
}

// warpsPerBlock is the thread-block size, in warps, of the shared-memory
// placement: each block of resident warps owns one model replica.
const warpsPerBlock = 8

// runAsync is the one warp-round loop behind both entry points. Slots —
// lanes, or whole warps with cfg.WarpPerExample — each walk a contiguous
// chunk of items, one item per round. Each resident warp evaluates its
// slots' items, merges its lanes' writes, and lands them: with seed == nil
// in global memory, where the last warp wins at round end through apply;
// otherwise at once in its block's replica of seed, and the replicas'
// average is returned.
func (d *Device) runAsync(items []int, cfg AsyncConfig, seed []float64, lane func(item int, replica []float64, emit func(int, float64)), apply func(idx int, delta float64)) (AsyncStats, []float64) {
	var st AsyncStats
	n := len(items)
	if n == 0 {
		st.Cost = d.finish(Cost{Launches: 1})
		return st, nil
	}
	ws := d.Spec.WarpSize
	perWarp, lanesPerItem := ws, 1
	if cfg.WarpPerExample {
		perWarp, lanesPerItem = 1, ws
	}
	maxWarps := cfg.MaxWarps
	if maxWarps <= 0 {
		maxWarps = d.Spec.MaxResidentWarps()
	}
	// Every read component streams its CSR value and column index; from
	// global memory it also gathers the model component.
	readBytes := 20.0
	if seed != nil {
		maxWarps = (maxWarps + warpsPerBlock - 1) / warpsPerBlock * warpsPerBlock
		readBytes = 12
	}
	slots := min(maxWarps*perWarp, n)
	warps := (slots + perWarp - 1) / perWarp
	chunk := (n + slots - 1) / slots
	fpe := cfg.FlopsPerElement
	if fpe <= 0 {
		fpe = 4
	}

	cost := Cost{Launches: 1}
	var replicas [][]float64
	if seed != nil {
		replicas = make([][]float64, (warps+warpsPerBlock-1)/warpsPerBlock)
		for b := range replicas {
			replicas[b] = slices.Clone(seed)
		}
		// The replica load and final flush are the only global model
		// traffic: coalesced streams (the flush is the write half).
		cost.Bytes += float64(len(replicas)) * float64(len(seed)) * 8 * 2
		cost.WriteBytes += float64(len(replicas)) * float64(len(seed)) * 8
	}

	// Per-lane emission buffers and their emit callbacks, reused across
	// rounds.
	laneIdx := make([][]int64, perWarp)
	laneDelta := make([][]float64, perWarp)
	emit := make([]func(int, float64), perWarp)
	for l := range emit {
		emit[l] = func(idx int, delta float64) {
			laneIdx[l] = append(laneIdx[l], int64(idx))
			laneDelta[l] = append(laneDelta[l], delta)
		}
	}
	merged := make(map[int]float64)      // one warp's writes after lane merging
	roundWinner := make(map[int]float64) // a round's global writes: last warp wins
	for round := 0; round < chunk; round++ {
		clear(roundWinner)
		anyWork := false
		for w := 0; w < warps; w++ {
			var rep []float64
			if replicas != nil {
				rep = replicas[w/warpsPerBlock]
			}
			maxLen, active := 0, 0
			for l := range laneIdx {
				laneIdx[l], laneDelta[l] = laneIdx[l][:0], laneDelta[l][:0]
				t := w*perWarp + l
				pos := t*chunk + round
				if t >= slots || pos >= n || pos >= (t+1)*chunk {
					continue
				}
				active++
				item := items[pos]
				reads := 0
				if cfg.ReadSupport != nil {
					reads = cfg.ReadSupport(item)
				}
				if cfg.FaultDrop != nil && cfg.FaultDrop(item) {
					// The dropped update's compute and reads still
					// cost; only the write disappears.
					st.Dropped++
					cost.Flops += float64(reads) * float64(fpe)
					cost.Bytes += float64(reads) * readBytes
					maxLen = max(maxLen, reads)
					continue
				}
				lane(item, rep, emit[l])
				emits := len(laneIdx[l])
				if extra := reads - emits; extra > 0 {
					// Read-only work: example stream, model reads,
					// margin arithmetic — no write.
					cost.Flops += float64(extra) * float64(fpe) / 2
					cost.Bytes += float64(extra) * readBytes
				}
				maxLen = max(maxLen, reads, emits)
			}
			if active == 0 {
				continue
			}
			anyWork = true

			// Merge lanes within the warp, in lane order.
			clear(merged)
			var emitted int64
			for l, lidx := range laneIdx {
				for k, ix := range lidx {
					idx := int(ix)
					if cfg.Combine {
						merged[idx] += laneDelta[l][k]
						continue
					}
					if _, dup := merged[idx]; dup {
						st.LostIntra++
					}
					merged[idx] = laneDelta[l][k] // last lane wins
				}
				emitted += int64(len(lidx))
			}
			st.Updates += emitted
			for idx, delta := range merged {
				if rep != nil {
					rep[idx] += delta
					st.Applied++
					continue
				}
				if _, dup := roundWinner[idx]; dup {
					st.LostInter++
				}
				roundWinner[idx] = delta
			}

			// Cost accounting for this warp-round: divergence makes
			// every lane pay for the longest item (strided over
			// lanesPerItem lanes); the example data streams from
			// contiguous CSR storage. Shared-memory model accesses are
			// effectively free next to global traffic.
			cost.Flops += float64(emitted) * float64(fpe)
			cost.LockstepOps += float64(ws*((maxLen+lanesPerItem-1)/lanesPerItem)) * float64(fpe)
			cost.Bytes += float64(emitted) * 12
			if rep == nil {
				// Global model reads and writes follow the
				// coalescing rule. Scattered read-modify-write
				// traffic replays and write-allocates: it sustains
				// roughly a third of the streaming bandwidth, so
				// count it threefold; half of it is the write share.
				tr := d.warpTraffic(laneIdx, 8, 2)
				cost.Transactions += tr.Transactions
				cost.Bytes += tr.Bytes * 3
				cost.WriteBytes += tr.Bytes * 3 / 2
			}
		}
		if !anyWork {
			break
		}
		st.Rounds++
		for idx, delta := range roundWinner {
			apply(idx, delta)
			st.Applied++
		}
	}
	st.Cost = d.finish(cost)
	if replicas == nil {
		return st, nil
	}
	// Average the replicas back to global memory.
	inv := 1 / float64(len(replicas))
	for j := range seed {
		var s float64
		for _, r := range replicas {
			s += r[j]
		}
		seed[j] = s * inv
	}
	return st, seed
}
