package simt

// The cycle-accurate accounting behind every Warp operation. An
// operation calls its charge method only when the warp is costed
// (Device.Launch sets that from Device.Mode and profiler sampling); an
// uncosted warp performs the same data movement through the same fault
// and race machinery but records nothing and allocates nothing, so
// functional runs pay one predictable branch per operation. Charge
// tallies through the same methods.

func (w *Warp) chargeALU(n int) {
	w.stats.ALUOps += int64(n)
	w.addCycles(int64(n))
}

// chargeSharedSpan accounts a contiguous shared access of `active`
// consecutive cells as the run of warp-wide accesses it stands for:
// one per warp-width chunk, the last one ragged. Each covers at most
// 32 consecutive words, which map to pairwise-distinct banks —
// conflict-free by construction.
func (w *Warp) chargeSharedSpan(active int, store bool) {
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

// chargeSharedBroadcast accounts an all-lanes-same-word shared read
// (hardware broadcast: one conflict-free access).
func (w *Warp) chargeSharedBroadcast() {
	lanes := int64(w.dev.Spec.WarpSize)
	w.stats.TotalLaneSlots += lanes
	w.stats.ActiveLaneSlots += lanes
	w.stats.SharedLoads++
	w.addCycles(1)
}

// chargeGlobalSpan accounts a fully-coalesced global access of
// `active` cells covering [base, base+active*width), chunked like
// chargeSharedSpan: each warp-width chunk counts the 128-byte segments
// it touches.
func (w *Warp) chargeGlobalSpan(base int64, width, active int, cached, store bool) {
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
	w.chargeGlobal(t, cached, store)
}

// chargeGlobalBroadcast accounts an all-lanes-same-address global read
// of width bytes.
func (w *Warp) chargeGlobalBroadcast(addr int64, width int) {
	lanes := int64(w.dev.Spec.WarpSize)
	w.stats.TotalLaneSlots += lanes
	w.stats.ActiveLaneSlots += lanes
	w.stats.GlobalRequestedBytes += int64(width)
	t := (addr+int64(width)-1)>>7 - addr>>7 + 1
	w.chargeGlobal(t, false, false)
}

// chargeGlobal accounts t 128-byte transactions.
func (w *Warp) chargeGlobal(t int64, cached, store bool) {
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

func (w *Warp) chargeShuffle() {
	w.stats.ShuffleOps++
	w.addCycles(1)
}

func (w *Warp) chargeVote() {
	w.stats.VoteOps++
	w.addCycles(1)
}

// Charge is a run of charge-only operations a kernel repeats unchanged
// (a DP row's fixed work, say), tallied once by the warp's own charge
// methods and applied as one KernelStats delta per repetition (Apply).
// Tallying touches no shared memory and no race state.
type Charge struct{ w Warp }

// NewCharge returns an empty Charge for warps of w's device.
func (w *Warp) NewCharge() Charge { return Charge{w: Warp{dev: w.dev}} }

// ALU, Shuffle, SharedSpan and SharedBroadcast tally what Warp.ALU,
// ShflUpI32Into (per shuffle), SharedSpanTouch and SharedBroadcastU8
// charge.
func (c *Charge) ALU(n int)                    { c.w.chargeALU(n) }
func (c *Charge) SharedSpan(n int, store bool) { c.w.chargeSharedSpan(n, store) }
func (c *Charge) SharedBroadcast()             { c.w.chargeSharedBroadcast() }
func (c *Charge) Shuffle(n int) {
	for range n {
		c.w.chargeShuffle()
	}
}

// Apply adds c's tally to the warp's counters: one call per repetition
// of the run, and one branch in a warp that records nothing.
func (w *Warp) Apply(c *Charge) {
	if w.costed {
		w.stats.Add(&c.w.stats)
		w.cyclesSinceSync += c.w.stats.IssueCycles
	}
}
