package simt

// CostModel is the optional-cost seam between kernel execution and
// microarchitectural accounting, extending the obs package's
// nil-receiver philosophy: a warp with a nil CostModel performs the
// same data movement through the same fault and race machinery but
// records nothing and allocates nothing, so functional runs pay zero
// accounting cost. Device.Launch installs the model per launch from
// Device.Mode; every Warp operation consults it behind a nil check.
type CostModel interface {
	// ALU accounts n arithmetic warp instructions.
	ALU(w *Warp, n int)
	// SharedAccess accounts one generic per-lane shared-memory access
	// (gather or scatter; addrs are byte addresses, negative entries
	// mark inactive lanes) including bank-conflict replays.
	SharedAccess(w *Warp, sm *SharedMem, addrs []int, store bool)
	// SharedSpan accounts a contiguous shared access of `active`
	// consecutive cells as the run of warp-wide accesses it stands for:
	// one per warp-width chunk, the last one ragged. Each covers at most
	// `banks` consecutive words, which map to pairwise-distinct banks —
	// conflict-free by construction.
	SharedSpan(w *Warp, active int, store bool)
	// SharedBroadcast accounts an all-lanes-same-word shared read
	// (hardware broadcast: one conflict-free access).
	SharedBroadcast(w *Warp)
	// GlobalAccess accounts one generic per-lane global access of
	// width bytes per lane, counting 128-byte coalesced transactions.
	GlobalAccess(w *Warp, addrs []int64, width int, cached, store bool)
	// GlobalSpan accounts a fully-coalesced global access of `active`
	// cells covering [base, base+active*width), chunked like SharedSpan:
	// each warp-width chunk counts the 128-byte segments it touches.
	GlobalSpan(w *Warp, base int64, width, active int, cached, store bool)
	// GlobalBroadcast accounts an all-lanes-same-address global read.
	GlobalBroadcast(w *Warp, addr int64, width int, cached bool)
	// Shuffle and Vote account one warp-wide exchange / vote
	// instruction.
	Shuffle(w *Warp)
	Vote(w *Warp)
	// Sync accounts the barrier instruction itself (stall cycles are
	// added by Warp.Sync from the block maximum).
	Sync(w *Warp)
}

// cycleModel is the cycle-accurate CostModel: the accounting that was
// historically inlined in every Warp operation.
type cycleModel struct{}

func (cycleModel) ALU(w *Warp, n int) {
	w.stats.ALUOps += int64(n)
	w.addCycles(int64(n))
}

func (cycleModel) SharedAccess(w *Warp, sm *SharedMem, addrs []int, store bool) {
	d := sm.conflictDegree(addrs)
	w.noteLanes(addrs)
	if store {
		w.stats.SharedStores += int64(d)
	} else {
		w.stats.SharedLoads += int64(d)
	}
	w.stats.BankConflictReplays += int64(d - 1)
	w.addCycles(int64(d))
}

func (cycleModel) SharedSpan(w *Warp, active int, store bool) {
	lanes := w.dev.Spec.WarpSize
	chunks := int64((active + lanes - 1) / lanes)
	w.stats.TotalLaneSlots += chunks * int64(lanes)
	w.stats.ActiveLaneSlots += int64(active)
	if store {
		w.stats.SharedStores += chunks
	} else {
		w.stats.SharedLoads += chunks
	}
	w.addCycles(chunks)
}

func (cycleModel) SharedBroadcast(w *Warp) {
	lanes := int64(w.dev.Spec.WarpSize)
	w.stats.TotalLaneSlots += lanes
	w.stats.ActiveLaneSlots += lanes
	w.stats.SharedLoads++
	w.addCycles(1)
}

func (cycleModel) GlobalAccess(w *Warp, addrs []int64, width int, cached, store bool) {
	t := int64(coalescedTransactions(addrs, width))
	before := w.stats.ActiveLaneSlots
	w.noteLanes64(addrs)
	w.stats.GlobalRequestedBytes += (w.stats.ActiveLaneSlots - before) * int64(width)
	globalCharge(w, t, cached, store)
}

func (cycleModel) GlobalSpan(w *Warp, base int64, width, active int, cached, store bool) {
	lanes := w.dev.Spec.WarpSize
	var t int64
	for c := 0; c < active; c += lanes {
		// Distinct 128-byte segments touched by this chunk's bytes.
		lo := base + int64(c*width)
		hi := lo + int64(min(lanes, active-c)*width) - 1
		t += hi>>7 - lo>>7 + 1
		w.stats.TotalLaneSlots += int64(lanes)
	}
	w.stats.ActiveLaneSlots += int64(active)
	w.stats.GlobalRequestedBytes += int64(active * width)
	globalCharge(w, t, cached, store)
}

func (cycleModel) GlobalBroadcast(w *Warp, addr int64, width int, cached bool) {
	lanes := int64(w.dev.Spec.WarpSize)
	w.stats.TotalLaneSlots += lanes
	w.stats.ActiveLaneSlots += lanes
	w.stats.GlobalRequestedBytes += int64(width)
	t := (addr+int64(width)-1)>>7 - addr>>7 + 1
	globalCharge(w, t, cached, false)
}

func globalCharge(w *Warp, t int64, cached, store bool) {
	switch {
	case cached && store:
		w.stats.CachedStoreTransactions += t
		w.stats.CachedBytes += t * 128
	case cached:
		w.stats.CachedLoadTransactions += t
		w.stats.CachedBytes += t * 128
	case store:
		w.stats.GlobalStoreTransactions += t
		w.stats.GlobalBytes += t * 128
	default:
		w.stats.GlobalLoadTransactions += t
		w.stats.GlobalBytes += t * 128
	}
	w.addCycles(t)
}

func (cycleModel) Shuffle(w *Warp) {
	w.stats.ShuffleOps++
	w.addCycles(1)
}

func (cycleModel) Vote(w *Warp) {
	w.stats.VoteOps++
	w.addCycles(1)
}

func (cycleModel) Sync(w *Warp) {
	w.stats.Syncs++
}

// Charge is a run of charge-only operations a kernel repeats unchanged
// (a DP row's fixed work, say), tallied once by cycleModel's own
// formulas and applied as one KernelStats delta per repetition (Apply).
// Tallying touches no shared memory and no race state.
type Charge struct{ w Warp }

// NewCharge returns an empty Charge for warps of w's device.
func (w *Warp) NewCharge() Charge { return Charge{w: Warp{dev: w.dev}} }

// ALU, Shuffle, SharedSpan and SharedBroadcast tally what Warp.ALU,
// ShuffleTouch, SharedSpanTouch and SharedBroadcastU8 charge.
func (c *Charge) ALU(n int)                    { cycleModel{}.ALU(&c.w, n) }
func (c *Charge) SharedSpan(n int, store bool) { cycleModel{}.SharedSpan(&c.w, n, store) }
func (c *Charge) SharedBroadcast()             { cycleModel{}.SharedBroadcast(&c.w) }
func (c *Charge) Shuffle(n int) {
	for range n {
		cycleModel{}.Shuffle(&c.w)
	}
}

// Apply adds c's tally to the warp's counters: one call per repetition
// of the run, and a nil check in a warp that records nothing.
func (w *Warp) Apply(c *Charge) {
	if w.cost != nil {
		w.stats.Add(&c.w.stats)
		w.cyclesSinceSync += c.w.stats.IssueCycles
	}
}
