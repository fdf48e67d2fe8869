package simt

// SharedMem models a block's on-chip shared memory: byte-addressable
// storage with optional cross-warp race detection between barriers.
// Warps reach it only through spans and broadcasts (warp_span.go),
// which never conflict on the banks, so no bank state is kept.
//
// Only one warp of a block runs at a time (a cooperative block passes
// a baton, device.go), so the storage takes no lock. A simulated racy
// kernel (the paper's synchronised multi-warp baseline run without its
// barriers) is detected and reported by the epoch tracker, and its
// lost updates fall the same way on every run.
type SharedMem struct {
	data []byte

	// faults, when non-nil, is this block's silent-corruption overlay
	// (byte offset -> XOR mask, drawn once per launch by
	// MemFaultInjector). The mask is applied on the read path so a
	// corrupted byte reads wrong for the whole launch regardless of
	// warp interleaving — stores land in data unmodified, like a cell
	// whose readout circuitry is flipping the bit.
	faults map[int]byte

	// Race tracking at byte granularity (word granularity would flag
	// byte-disjoint neighbours in the same word, which the hardware
	// permits). epoch advances at every block barrier; an access races
	// when a different warp touched the same byte in the same epoch
	// and at least one of the two accesses was a write.
	trackRaces bool
	epoch      int32
	lastWarp   []int32
	lastEpoch  []int32
	lastWrite  []bool
	races      int64
}

func newSharedMem(size int, trackRaces bool) *SharedMem {
	sm := &SharedMem{
		data:       make([]byte, size),
		trackRaces: trackRaces,
	}
	if trackRaces {
		sm.lastWarp = make([]int32, size)
		for i := range sm.lastWarp {
			sm.lastWarp[i] = -1
		}
		sm.lastEpoch = make([]int32, size)
		sm.lastWrite = make([]bool, size)
	}
	return sm
}

// Size returns the shared allocation size in bytes.
func (sm *SharedMem) Size() int { return len(sm.data) }

// reset prepares a pooled SharedMem for the next block: zeroed
// storage, fresh race-tracking state, and the block's fault overlay.
// Reuse keeps the per-block cost at one memclr instead of an
// allocation + GC pressure per block.
func (sm *SharedMem) reset(faults map[int]byte) {
	clear(sm.data)
	sm.faults = faults
	sm.races = 0
	sm.epoch = 0
	if sm.trackRaces {
		for i := range sm.lastWarp {
			sm.lastWarp[i] = -1
		}
		clear(sm.lastEpoch)
		clear(sm.lastWrite)
	}
}

// at reads one byte through the silent-corruption overlay. All load
// paths go through it; the store paths write sm.data directly.
func (sm *SharedMem) at(a int) byte {
	b := sm.data[a]
	if sm.faults != nil {
		b ^= sm.faults[a]
	}
	return b
}

// noteSpan records one warp access to the bytes [base, base+n) for
// race detection: a byte races when a different warp touched it in the
// same epoch and at least one of the two accesses was a write. Only a
// race-tracking block calls it.
func (sm *SharedMem) noteSpan(warp int32, base, n int, isWrite bool) {
	if base < 0 {
		return
	}
	for b := base; b < base+n && b < len(sm.lastWarp); b++ {
		if sm.lastEpoch[b] == sm.epoch && sm.lastWarp[b] >= 0 && sm.lastWarp[b] != warp &&
			(isWrite || sm.lastWrite[b]) {
			sm.races++
		}
		// Writes claim the byte; reads only claim unowned bytes so a
		// later conflicting write is still caught.
		if isWrite || sm.lastEpoch[b] != sm.epoch || sm.lastWarp[b] < 0 {
			sm.lastWarp[b] = warp
			sm.lastEpoch[b] = sm.epoch
			sm.lastWrite[b] = isWrite
		}
	}
}

func (sm *SharedMem) advanceEpoch() { sm.epoch++ }
