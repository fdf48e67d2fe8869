package simt

// Allocation-free variants of the shared-memory and shuffle operations
// for use in kernel inner loops. Semantics and accounting are identical
// to the allocating versions; dst must have one element per lane.

// SharedLoadU8Into gathers one byte per lane into dst.
func (w *Warp) SharedLoadU8Into(dst []uint8, addrs []int) {
	sm := w.block.shared
	if sm.concurrent {
		sm.mu.Lock()
		defer sm.mu.Unlock()
	}
	if w.cost != nil {
		w.cost.SharedAccess(w, sm, addrs, false)
	}
	if sm.trackRaces {
		sm.noteAccess(int32(w.WarpInBlock), addrs, 1, false)
	}
	for i, a := range addrs {
		if a >= 0 {
			dst[i] = sm.at(a)
		}
	}
}

// ShuffleTouch meters n warp-shuffle instructions without moving any
// data. Each costs what ShflUpI32Into costs and, like it, is an
// illegal instruction on a device without shuffle.
func (w *Warp) ShuffleTouch(n int) {
	if !w.dev.Spec.HasShuffle {
		w.fail("shfl.xor", "no warp shuffle on this device")
	}
	if w.cost != nil {
		for range n {
			w.cost.Shuffle(w)
		}
	}
}

// ShflUpI32Into is the shfl.up exchange: lane l receives lane
// l-delta's value; the low delta lanes keep their own (dst and vals
// must not alias).
func (w *Warp) ShflUpI32Into(dst, vals []int32, delta int) {
	if !w.dev.Spec.HasShuffle {
		w.fail("shfl.up", "no warp shuffle on this device")
	}
	if w.cost != nil {
		w.cost.Shuffle(w)
	}
	for l := range vals {
		if l >= delta {
			dst[l] = vals[l-delta]
		} else {
			dst[l] = vals[l]
		}
	}
}
