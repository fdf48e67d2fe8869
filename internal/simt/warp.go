package simt

// Warp is the execution context handed to a kernel: one 32-lane SIMT
// work unit. Kernels hold the warp's registers themselves — the MSV and
// P7Viterbi kernels as satmath SWAR words, a whole DP row of 32-lane
// chunks at a time; the synchronised MSV ablation as one slice element
// per lane — and report costs through the Warp's operations; shared
// and global memory go through the Warp's span and broadcast
// operations so that transactions, races and cycles are accounted. A
// span longer than the warp is charged as the warp-wide spans it
// stands for (warp_span.go). A vote or read-back whose result the
// kernel can compute on its own registers is charged without moving
// data (Vote, SharedSpanTouch); for a read-back that holds only while
// the block's shared memory is exact (SharedExact). Charge-only work a
// kernel repeats unchanged, shuffles included, is tallied once as a
// Charge (Apply).
//
// A Warp is owned by a single goroutine for the duration of the kernel.
type Warp struct {
	// BlockIdx is the block index within the grid.
	BlockIdx int
	// WarpInBlock is this warp's index within its block
	// (threadIdx.y in the paper's launch configuration).
	WarpInBlock int
	// NumBlocks and WarpsPerBlock describe the launch geometry.
	NumBlocks     int
	WarpsPerBlock int

	dev   *Device
	block *blockRun
	// costed is set when the block records accounting (cost.go): in
	// ModeCycleAccurate and in a profiler-sampled fast-mode block.
	// Otherwise every operation still moves the same data through the
	// same fault and race machinery but records nothing.
	costed bool
	stats  KernelStats

	cyclesSinceSync int64
}

// Lanes returns the warp width (32).
func (w *Warp) Lanes() int { return w.dev.Spec.WarpSize }

// GlobalWarpID returns the paper's "row" index:
// blockIdx * warpsPerBlock + warpInBlock.
func (w *Warp) GlobalWarpID() int { return w.BlockIdx*w.WarpsPerBlock + w.WarpInBlock }

// TotalWarps returns the paper's "duty span": the number of warps in
// the grid.
func (w *Warp) TotalWarps() int { return w.NumBlocks * w.WarpsPerBlock }

// HasShuffle reports whether the device supports warp-shuffle
// instructions (Kepler); Fermi kernels must take the shared-memory
// reduction path instead.
func (w *Warp) HasShuffle() bool { return w.dev.Spec.HasShuffle }

// SharedExact reports whether this block's shared memory is exact (no
// flip@shared= overlay, no race tracking): a kernel may then take a
// read-back of bytes the warp itself stored from its registers and
// charge only the load. Otherwise it must issue the real load.
func (w *Warp) SharedExact() bool {
	sm := w.block.shared
	return sm.faults == nil && !sm.trackRaces
}

func (w *Warp) addCycles(n int64) {
	w.stats.IssueCycles += n
	w.cyclesSinceSync += n
}

// ALU accounts n arithmetic warp instructions.
func (w *Warp) ALU(n int) {
	if w.costed {
		w.chargeALU(n)
	}
}

// Vote meters one warp-vote instruction (__all / __any). The kernel
// folds the per-lane predicate into a host-side flag in the same pass
// that computes it, so there is no predicate vector to scan here.
func (w *Warp) Vote() {
	if w.costed {
		w.chargeVote()
	}
}

// Sync executes a block-wide __syncthreads barrier: the warp hands on
// the block's baton (device.go) and stalls for the block's slowest warp.
// Only legal in a cooperative launch; the warp-synchronous kernels of
// the paper never call it.
func (w *Warp) Sync() {
	bt := w.block.baton
	if bt == nil {
		w.fail("__syncthreads", "barrier in a non-cooperative launch")
	}
	bt.arrived = max(bt.arrived, w.cyclesSinceSync)
	bt.pass(w.WarpInBlock, w.block.shared)
	<-bt.turn[w.WarpInBlock]
	if bt.broken {
		panic(barrierBroken{})
	}
	if w.costed {
		w.stats.Syncs++
		w.stats.SyncStallCycles += bt.stall - w.cyclesSinceSync
	}
	w.cyclesSinceSync = 0
}

// ShflUpI32Into is the shfl.up exchange: lane l receives lane
// l-delta's value; the low delta lanes keep their own (dst and vals
// must not alias).
func (w *Warp) ShflUpI32Into(dst, vals []int32, delta int) {
	if !w.dev.Spec.HasShuffle {
		w.fail("shfl.up", "no warp shuffle on this device")
	}
	if w.costed {
		w.chargeShuffle()
	}
	for l := range vals {
		if l >= delta {
			dst[l] = vals[l-delta]
		} else {
			dst[l] = vals[l]
		}
	}
}
