package simt

// Warp is the execution context handed to a kernel: one 32-lane SIMT
// work unit. Kernels hold the warp's registers themselves — the MSV and
// P7Viterbi kernels as satmath SWAR words, a whole DP row of 32-lane
// chunks at a time; the float kernels and the ablations as one slice
// element per lane — and report costs through the Warp's operations;
// shared and global memory go through the Warp so that bank conflicts,
// coalescing, races and cycles are accounted. A span longer than the
// warp is charged as the warp-wide spans it stands for (warp_span.go).
// An exchange, vote or read-back whose result the kernel can compute
// on its own registers is charged without moving data (ShuffleTouch,
// Vote, SharedSpanTouch); for a read-back that holds only while the
// block's shared memory is exact (SharedExact). Charge-only work a
// kernel repeats unchanged is tallied once as a Charge (Apply).
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
	// cost is the launch's CostModel; nil in ModeFast, in which case
	// every operation still moves the same data through the same fault
	// and race machinery but records nothing.
	cost  CostModel
	stats KernelStats

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

// noteLanes records SIMT lane activity for a memory operation.
func (w *Warp) noteLanes(addrs []int) {
	w.stats.TotalLaneSlots += int64(len(addrs))
	for _, a := range addrs {
		if a >= 0 {
			w.stats.ActiveLaneSlots++
		}
	}
}

// noteLanes64 is noteLanes for global (64-bit) addresses.
func (w *Warp) noteLanes64(addrs []int64) {
	w.stats.TotalLaneSlots += int64(len(addrs))
	for _, a := range addrs {
		if a >= 0 {
			w.stats.ActiveLaneSlots++
		}
	}
}

// ALU accounts n arithmetic warp instructions.
func (w *Warp) ALU(n int) {
	if w.cost != nil {
		w.cost.ALU(w, n)
	}
}

// SharedLoadU8 gathers one byte per lane from block shared memory.
// addrs must have one entry per lane; negative entries mark inactive
// lanes. Bank conflicts are counted and cost replay cycles.
func (w *Warp) SharedLoadU8(addrs []int) []uint8 {
	out := make([]uint8, len(addrs))
	w.SharedLoadU8Into(out, addrs)
	return out
}

// SharedStoreU8 scatters one byte per lane into block shared memory.
func (w *Warp) SharedStoreU8(addrs []int, vals []uint8) {
	sm := w.block.shared
	if sm.concurrent {
		sm.mu.Lock()
		defer sm.mu.Unlock()
	}
	if w.cost != nil {
		w.cost.SharedAccess(w, sm, addrs, true)
	}
	if sm.trackRaces {
		sm.noteAccess(int32(w.WarpInBlock), addrs, 1, true)
	}
	for i, a := range addrs {
		if a >= 0 {
			sm.data[a] = vals[i]
		}
	}
}

// GlobalLoad accounts a warp global-memory read of width bytes per
// lane at the given logical byte addresses (negative = inactive lane),
// counting 128-byte coalesced transactions. The caller reads the
// actual data from its own Go-side buffers; the simulator only meters
// the traffic.
func (w *Warp) GlobalLoad(addrs []int64, width int) {
	if w.cost != nil {
		w.cost.GlobalAccess(w, addrs, width, false, false)
	}
}

// GlobalStore accounts a warp global-memory write.
func (w *Warp) GlobalStore(addrs []int64, width int) {
	if w.cost != nil {
		w.cost.GlobalAccess(w, addrs, width, false, true)
	}
}

// coalescedTransactions counts distinct 128-byte segments touched.
func coalescedTransactions(addrs []int64, width int) int {
	var segs [64]int64
	n := 0
	for _, a := range addrs {
		if a < 0 {
			continue
		}
		for b := a >> 7; b <= (a+int64(width)-1)>>7; b++ {
			dup := false
			for i := 0; i < n; i++ {
				if segs[i] == b {
					dup = true
					break
				}
			}
			if !dup && n < len(segs) {
				segs[n] = b
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return n
}

// Vote meters one warp-vote instruction (__all / __any). The kernel
// folds the per-lane predicate into a host-side flag in the same pass
// that computes it, so there is no predicate vector to scan here.
func (w *Warp) Vote() {
	if w.cost != nil {
		w.cost.Vote(w)
	}
}

// Sync executes a block-wide __syncthreads barrier. Only legal in a
// cooperative launch; the warp-synchronous kernels of the paper never
// call it.
func (w *Warp) Sync() {
	if w.block.barrier == nil {
		w.fail("__syncthreads", "barrier in a non-cooperative launch")
	}
	if w.cost != nil {
		w.cost.Sync(w)
	}
	maxCycles := w.block.barrier.wait(w.cyclesSinceSync)
	if w.cost != nil {
		w.stats.SyncStallCycles += maxCycles - w.cyclesSinceSync
	}
	w.cyclesSinceSync = 0
	if w.WarpInBlock == 0 {
		// Exactly one warp advances the race-tracking epoch; the
		// barrier's second phase orders this against all accesses.
		w.block.shared.advanceEpoch()
	}
	w.block.barrier.release()
}
