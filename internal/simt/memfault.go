package simt

// Silent-data-corruption model. Unlike the fail-stop faults in
// fault.go, a memory flip announces nothing: the launch succeeds and
// the numbers are simply wrong. The paper's hardware mix makes this a
// first-class concern — the GTX 580s are consumer parts with no ECC,
// while the Tesla K40 corrects single-bit errors in hardware — so the
// injector is per-device and respects DeviceSpec.ECC: on an ECC device
// the same draws are made (keeping schedules comparable across
// configurations) but every flip is counted as corrected and none is
// applied.
//
// Two corruption sites are modelled, chosen for what the integrity
// layer can and cannot see:
//
//   - Readback flips (FlipProb, per 64-bit result word) land in the
//     device-resident score buffer as the host reads it back. A flipped
//     float64 score almost surely leaves the filter's quantized score
//     grid, so these are deterministically detectable by the grid
//     guards in internal/integrity.
//   - Shared-memory flips (FlipShared, per 32-bit word of the launch's
//     shared allocation) corrupt live DP state mid-kernel. The kernel
//     then computes a wrong but well-formed score that may pass every
//     cheap guard — the detection-recall case the sdc benchmark
//     measures.
//
// FlipAt schedules a deterministic burst on one executed launch
// ordinal: several shared-byte flips plus one guaranteed readback
// flip, so tests can force a detection without probabilistic draws.

import (
	"math"
	"math/rand"
	"sync"
)

// ReadbackFlip is one silent bit flip in a device-resident result
// buffer, surfaced when the host reads the buffer back: Word indexes
// the 64-bit word, Bit the bit to XOR into it.
type ReadbackFlip struct {
	Word int
	Bit  uint
}

// MemFaultInjector injects silent memory corruption into a device's
// launches. Attach one via FaultInjector.Mem (internal/faults does
// this for flip@ clauses); a nil injector flips nothing. All draws come
// from a seeded generator and are consumed in deterministic order
// (launch plan, then readback, per executed launch), so a spec plus a
// seed fully determines the corruption schedule.
type MemFaultInjector struct {
	mu            sync.Mutex
	rng           *rand.Rand
	readbackP     float64
	sharedP       float64
	atLaunch      map[int64]bool
	launches      int64
	flips         int64
	corrected     int64
	forceReadback bool
}

// NewMemFaultInjector returns an injector drawing from a generator
// seeded with seed.
func NewMemFaultInjector(seed int64) *MemFaultInjector {
	return &MemFaultInjector{
		rng:      rand.New(rand.NewSource(seed)),
		atLaunch: make(map[int64]bool),
	}
}

// FlipProb sets the per-launch, per-64-bit-word probability of a
// readback bit flip in the device result buffer.
func (m *MemFaultInjector) FlipProb(p float64) *MemFaultInjector {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readbackP = p
	return m
}

// FlipShared sets the per-launch, per-32-bit-word probability of a
// bit flip in the launch's shared-memory allocation.
func (m *MemFaultInjector) FlipShared(p float64) *MemFaultInjector {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sharedP = p
	return m
}

// FlipAt schedules a forced corruption burst on the given executed
// launch ordinal (0-based, counting only launches that passed
// fail-stop arbitration): a handful of shared-byte flips plus one
// guaranteed readback flip consumed by the next readback.
func (m *MemFaultInjector) FlipAt(ordinal int64) *MemFaultInjector {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.atLaunch[ordinal] = true
	return m
}

// Launches returns how many executed launches the injector has seen.
func (m *MemFaultInjector) Launches() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.launches
}

// Flips returns how many bit/byte flips have been applied.
func (m *MemFaultInjector) Flips() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flips
}

// Corrected returns how many flips ECC hardware suppressed.
func (m *MemFaultInjector) Corrected() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.corrected
}

// memFlipPlan is one launch's shared-memory corruption, drawn up
// front under the injector lock so the applied flips are independent
// of host goroutine interleaving: block index -> byte offset -> XOR
// mask applied on every read of that byte.
type memFlipPlan struct {
	shared map[int]map[int]byte
}

// geoSkip draws the gap (>= 1) to the next flipped word for a
// per-word probability p, geometrically, so sparse rates do not cost
// one rng call per word of a multi-megabyte allocation.
func geoSkip(rng *rand.Rand, p float64) int64 {
	u := rng.Float64()
	return int64(math.Floor(math.Log(1-u)/math.Log(1-p))) + 1
}

// memPlan consumes one executed launch ordinal and draws its
// shared-memory corruption. ecc suppresses every flip (counted as
// corrected). Returns nil when nothing is to be applied.
func (m *MemFaultInjector) memPlan(ecc bool, sharedBytesPerBlock, blocks int) *memFlipPlan {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ord := m.launches
	m.launches++

	var plan *memFlipPlan
	addShared := func(block, off int, mask byte) {
		if ecc {
			m.corrected++
			return
		}
		m.flips++
		if plan == nil {
			plan = &memFlipPlan{shared: make(map[int]map[int]byte)}
		}
		bm := plan.shared[block]
		if bm == nil {
			bm = make(map[int]byte)
			plan.shared[block] = bm
		}
		bm[off] ^= mask
	}

	wordsPerBlock := sharedBytesPerBlock / 4
	if m.sharedP > 0 && wordsPerBlock > 0 && blocks > 0 {
		words := int64(blocks) * int64(wordsPerBlock)
		for w := geoSkip(m.rng, m.sharedP) - 1; w < words; w += geoSkip(m.rng, m.sharedP) {
			bit := uint(m.rng.Intn(32))
			block := int(w / int64(wordsPerBlock))
			off := int(w%int64(wordsPerBlock))*4 + int(bit/8)
			addShared(block, off, 1<<(bit%8))
		}
	}
	if m.atLaunch[ord] {
		if sharedBytesPerBlock > 0 && blocks > 0 {
			for i := 0; i < 8; i++ {
				block := m.rng.Intn(blocks)
				off := m.rng.Intn(sharedBytesPerBlock)
				addShared(block, off, 1<<uint(m.rng.Intn(8)))
			}
		}
		if ecc {
			m.corrected++
		} else {
			m.forceReadback = true
		}
	}
	return plan
}

// readbackFaults draws the silent flips landing in a device result
// buffer of n 64-bit words as the host reads it back, consuming any
// forced flip armed by FlipAt.
func (m *MemFaultInjector) readbackFaults(n int, ecc bool) []ReadbackFlip {
	if m == nil || n <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []ReadbackFlip
	emit := func(word int, bit uint) {
		if ecc {
			m.corrected++
			return
		}
		m.flips++
		out = append(out, ReadbackFlip{Word: word, Bit: bit})
	}
	if m.readbackP > 0 {
		for w := geoSkip(m.rng, m.readbackP) - 1; w < int64(n); w += geoSkip(m.rng, m.readbackP) {
			emit(int(w), uint(m.rng.Intn(64)))
		}
	}
	if m.forceReadback {
		m.forceReadback = false
		// Hit the high mantissa / low exponent range so the corruption
		// is numerically large, never lost to downstream rounding.
		emit(m.rng.Intn(n), uint(40+m.rng.Intn(12)))
	}
	return out
}
