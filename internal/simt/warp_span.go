package simt

import "hmmer3gpu/internal/satmath"

// Span operations: the warp access patterns the simulated kernels
// use — `active` lanes touching consecutive cells, or every lane
// reading one word — expressed as contiguous slice transfers. A span
// of at most 32 cells of width <= 4 covers at most 32 consecutive
// words, which map to pairwise-distinct banks, so the access is
// conflict-free by construction and its cost is computed analytically
// (cost.go). The data paths are tight loops over adjacent bytes that
// the compiler can bounds-check-eliminate and keep in cache. A span of
// no cells is neither charged nor race-noted.
//
// A span longer than the warp is a whole DP row moved at once. It
// stands for the run of warp-wide spans at consecutive offsets that a
// chunk-at-a-time kernel would issue — 32 cells each, the last one
// ragged — and is charged, race-noted and read through the fault
// overlay exactly as that loop is: one access per chunk, and for global
// spans the 128-byte segments each chunk touches.

// sharedAccess does the bookkeeping of every shared span and broadcast,
// in one order: charge the access, note it for the race tracker. The
// access covers the bytes [base, base+bytes); cells is its length, or 0
// for a same-word broadcast. It returns the block's shared memory. It
// takes no lock: one warp of a block runs at a time. The work is out of
// line so that an uncosted access without race tracking inlines to a
// few loads and no call.
func (w *Warp) sharedAccess(base, bytes, cells int, store bool) (sm *SharedMem) {
	if sm = w.block.shared; w.costed || sm.trackRaces {
		w.sharedAccessSlow(base, bytes, cells, store)
	}
	return
}

func (w *Warp) sharedAccessSlow(base, bytes, cells int, store bool) {
	sm := w.block.shared
	if w.costed {
		if cells == 0 {
			w.chargeSharedBroadcast()
		} else {
			w.chargeSharedSpan(cells, store)
		}
	}
	if sm.trackRaces {
		sm.noteSpan(int32(w.WarpInBlock), base, bytes, store)
	}
}

// SharedSpanLoadU8 loads the n consecutive shared bytes at
// [base, base+n) into dst[0:n]; lane l reads byte base+l.
func (w *Warp) SharedSpanLoadU8(dst []uint8, base, n int) {
	if n <= 0 {
		return
	}
	sm := w.sharedAccess(base, n, n, false)
	if sm.faults == nil {
		copy(dst[:n], sm.data[base:base+n])
		return
	}
	for i := 0; i < n; i++ {
		dst[i] = sm.at(base + i)
	}
}

// SharedSpanStoreU8 stores src[0:n] to the consecutive shared bytes at
// [base, base+n); lane l writes byte base+l.
func (w *Warp) SharedSpanStoreU8(src []uint8, base, n int) {
	if n <= 0 {
		return
	}
	sm := w.sharedAccess(base, n, n, true)
	copy(sm.data[base:base+n], src[:n])
}

// SharedSpanLoadI16 loads n consecutive 16-bit cells starting at byte
// offset base (2-aligned) into dst[0:n]; lane l reads cell base+2*l.
func (w *Warp) SharedSpanLoadI16(dst []int16, base, n int) {
	if n <= 0 {
		return
	}
	sm := w.sharedAccess(base, 2*n, n, false)
	if sm.faults == nil {
		src := sm.data[base : base+2*n : base+2*n]
		for i := 0; i < n; i++ {
			dst[i] = int16(uint16(src[2*i]) | uint16(src[2*i+1])<<8)
		}
		return
	}
	for i := 0; i < n; i++ {
		a := base + 2*i
		dst[i] = int16(uint16(sm.at(a)) | uint16(sm.at(a+1))<<8)
	}
}

// SharedSpanStoreI16 stores src[0:n] to n consecutive 16-bit cells
// starting at byte offset base.
func (w *Warp) SharedSpanStoreI16(src []int16, base, n int) {
	if n <= 0 {
		return
	}
	sm := w.sharedAccess(base, 2*n, n, true)
	dst := sm.data[base : base+2*n : base+2*n]
	for i := 0; i < n; i++ {
		v := uint16(src[i])
		dst[2*i] = byte(v)
		dst[2*i+1] = byte(v >> 8)
	}
}

// SharedSpanLoadWords is SharedSpanLoadU8 (width 1) or
// SharedSpanLoadI16 (width 2) into a register file held as SWAR words:
// lane l of the cells-long span lands in satmath's lane l of dst, the
// remaining lanes of dst are zero. Accounting, race tracking and the
// fault overlay are those of the slice form, call for call; only the
// fault-free data path differs, moving eight bytes at a time.
func (w *Warp) SharedSpanLoadWords(dst []uint64, base, cells, width int) {
	if cells <= 0 {
		clear(dst)
		return
	}
	n := cells * width
	sm := w.sharedAccess(base, n, cells, false)
	if sm.faults == nil {
		satmath.PackLanes(dst, sm.data[base:base+n])
		return
	}
	clear(dst)
	for i := 0; i < n; i++ {
		dst[i>>3] |= uint64(sm.at(base+i)) << (8 * (i & 7))
	}
}

// SharedSpanStoreWords stores the first cells lanes of src (width 1 or
// 2 bytes each) to the consecutive shared bytes at
// [base, base+cells*width) and touches nothing past them: the word
// form of SharedSpanStoreU8 / SharedSpanStoreI16.
func (w *Warp) SharedSpanStoreWords(src []uint64, base, cells, width int) {
	if cells <= 0 {
		return
	}
	n := cells * width
	sm := w.sharedAccess(base, n, cells, true)
	satmath.UnpackLanes(sm.data[base:base+n], src)
}

// SharedSpanTouch meters a contiguous shared span access — n cells of
// the given byte width, load or store — without moving any data. It is
// the op for model-table reads whose values the kernel sources from
// host memory: the table is never materialised in the block's shared
// storage, so there is nothing to read, but the traffic must still be
// accounted (and race-tracked) exactly like the SharedSpanLoad/Store
// of the same shape. Reads have no side effects through the fault
// overlay, so skipping the byte loop is invisible to results.
func (w *Warp) SharedSpanTouch(base, width, n int, store bool) {
	if n <= 0 {
		return
	}
	// Keep the load/store ops' out-of-bounds failure mode.
	_ = w.block.shared.data[base+width*n-1]
	w.sharedAccess(base, width*n, n, store)
}

// SharedBroadcastU8 reads one shared byte that every lane consumes: a
// same-word hardware broadcast, one conflict-free access with all
// lanes active.
func (w *Warp) SharedBroadcastU8(addr int) uint8 {
	return w.sharedAccess(addr, 1, 0, false).at(addr)
}

// SharedBroadcastI16 is the 16-bit same-word broadcast read.
func (w *Warp) SharedBroadcastI16(addr int) int16 {
	sm := w.sharedAccess(addr, 2, 0, false)
	return int16(uint16(sm.at(addr)) | uint16(sm.at(addr+1))<<8)
}

// GlobalSpanLoad meters a fully-coalesced warp read: `active` lanes
// reading width bytes each from consecutive addresses starting at
// base (lane l reads base + l*width; tail lanes inactive; longer spans
// as above). Only the traffic is metered — data lives in host
// buffers.
func (w *Warp) GlobalSpanLoad(base int64, width, active int) {
	w.globalSpan(base, width, active, false, false)
}

// GlobalSpanLoadCached is GlobalSpanLoad through the read-only data
// cache path.
func (w *Warp) GlobalSpanLoadCached(base int64, width, active int) {
	w.globalSpan(base, width, active, true, false)
}

// GlobalSpanStore meters a fully-coalesced warp write.
func (w *Warp) GlobalSpanStore(base int64, width, active int) {
	w.globalSpan(base, width, active, false, true)
}

// GlobalSpanStoreCached meters a coalesced write that stays in L2.
func (w *Warp) GlobalSpanStoreCached(base int64, width, active int) {
	w.globalSpan(base, width, active, true, true)
}

func (w *Warp) globalSpan(base int64, width, active int, cached, store bool) {
	if active > 0 && w.costed {
		w.chargeGlobalSpan(base, width, active, cached, store)
	}
}

// GlobalBroadcastLoad meters an all-lanes-same-address global read of
// width bytes (the packed-residue word fetch: one transaction,
// hardware broadcast).
func (w *Warp) GlobalBroadcastLoad(addr int64, width int) {
	if w.costed {
		w.chargeGlobalBroadcast(addr, width)
	}
}
