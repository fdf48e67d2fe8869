package gpu

import (
	"math/bits"

	"hmmer3gpu/internal/satmath"
	"hmmer3gpu/internal/simt"
)

// Warp registers. The MSV and P7Viterbi kernels hold a warp's
// registers as satmath SWAR words — lane l of a 32-lane register is
// lane l%8 of word l/8 (u8 cells) or l%4 of word l/4 (i16 cells) — so
// one word operation advances eight or four SIMT lanes, and satmath's
// row primitives, which the kernels run each recurrence through (SSE2
// on amd64), advance sixteen or eight per instruction. A kernel
// holds a whole DP row this way, chunk c of Algorithm 1/2 in words
// [c*lanes/8, (c+1)*lanes/8) (or /4), and moves it between registers
// and shared memory in one span (simt.SharedSpanLoadWords /
// SharedSpanStoreWords), which the simulator charges as the run of
// 32-cell chunk spans it stands for. What is charged to the device is
// what the lanes would have executed, chunk by chunk; only the host
// arithmetic is word-wide and row-long.
//
// Charges as data. What a DP row charges whatever its data — decode and
// per-chunk ALU, folded reductions, table reads that move nothing — is
// one simt.Charge per warp, applied once per row. Lazy-F rounds, the
// overflow exit, the residue fetch and every data span charge as they
// happen.
//
// Exactness. When the block's shared memory is exact
// (simt.Warp.SharedExact: no flip@shared= overlay, no race tracking),
// the Fermi reduction's scratch rounds — bytes the warp itself stored
// and reads back — ride on the row charge and the maximum comes from
// the registers; so do Viterbi's shared model-table touches. Otherwise
// the rounds are real stores and loads in the device's order, so a
// flipped byte corrupts the same scores, and the touches note races.
// Every other read-back, the MSV row and the Viterbi M and Lazy-F D
// reads included, is a real load in both cases.

const (
	lanesPerWordU8  = 8
	lanesPerWordI16 = 4
)

// laneI16 extracts lane l of an i16 register.
func laneI16(reg []uint64, l int) int16 {
	return int16(reg[l/lanesPerWordI16] >> (16 * (l % lanesPerWordI16)))
}

// setLaneI16 replaces lane l of an i16 register.
func setLaneI16(reg []uint64, l int, v int16) {
	sh := 16 * (l % lanesPerWordI16)
	w := &reg[l/lanesPerWordI16]
	*w = *w&^(0xFFFF<<sh) | uint64(uint16(v))<<sh
}

// words returns reg resized to n words, reallocating only when it is
// too small.
func words(reg []uint64, n int) []uint64 {
	if cap(reg) < n {
		return make([]uint64, n)
	}
	return reg[:n]
}

// keepWord is the mask of the lanes of a row's last word (perWord
// lanes to the word) that hold one of its m cells: all-ones when m
// fills the word.
func keepWord(m, perWord int) uint64 {
	if k := m % perWord; k != 0 {
		return 1<<(k*64/perWord) - 1
	}
	return ^uint64(0)
}

// keepLanes fills mask with all-ones in the first n lanes of a
// register with perWord lanes to the word and zero in the rest: ANDing
// with it forces the tail lanes of a row's last chunk to zero (the u8
// max identity), and selecting against a NegInf16 splat forces them to
// the i16 one.
func keepLanes(mask []uint64, n, perWord int) {
	laneBits := 64 / perWord
	for j := range mask {
		switch k := n - j*perWord; {
		case k >= perWord:
			mask[j] = ^uint64(0)
		case k > 0:
			mask[j] = 1<<(k*laneBits) - 1
		default:
			mask[j] = 0
		}
	}
}

// Warp-wide max reduction with broadcast, the operation the paper
// calls "Warp-Shuffled Reduction": on Kepler it is a butterfly
// exchange (XOR shuffle) — even workload, no shared memory, no
// synchronisation, and the maximum lands on every lane, ready for the
// next residue. On Fermi (no shuffle) the classic shared-memory binary
// reduction runs in a per-warp scratch region instead, consuming
// shared memory and extra instructions (the occupancy cost §IV-A
// attributes to the older architecture).
//
// Both run on register words. Where the reduction folds in registers
// — always on Kepler, and on Fermi in a block whose shared memory is
// exact — its result, the same maximum on every lane, is a fold of the
// words and its rounds ride on the kernel's row charge
// (chargeReduction). Only the Fermi reduction in an inexact block runs
// its rounds through the scratch region (scratchMaxU8 / scratchMaxI16),
// store / partner load / store at the addresses and sizes the lanes
// use, so a corrupted scratch byte is read by the same load as on the
// device.

// chargeReduction reports whether w's row-max reductions fold in
// registers and, if they do, adds their rounds to c: log2(lanes) maxes,
// plus with shuffle one XOR shuffle per round and on Fermi the scratch
// region's store, each round's partner load and store, and the final
// broadcast — the charges scratchMaxU8 / scratchMaxI16 issue.
func chargeReduction(c *simt.Charge, w *simt.Warp) (folds bool) {
	if !w.HasShuffle() && !w.SharedExact() {
		return false
	}
	lanes := w.Lanes()
	rounds := bits.TrailingZeros(uint(lanes))
	c.ALU(rounds)
	if w.HasShuffle() {
		c.Shuffle(rounds)
		return true
	}
	c.SharedSpan(lanes, true)
	for stride := lanes / 2; stride > 0; stride >>= 1 {
		c.SharedSpan(stride, false)
		c.SharedSpan(stride, true)
	}
	c.SharedBroadcast()
	return true
}

// scratchMaxU8 runs the Fermi reduction of a DP row's u8 lanes, each
// off by bias (the plain subtraction here undoes a plain add exactly),
// through the warp's scratch region and returns their maximum. row is
// a lanes-wide register every lanes/8 words; vals gathers each lane's
// maximum across the chunks, partner is a second scratch register.
func scratchMaxU8(w *simt.Warp, row []uint64, bias uint64, vals, partner []uint64, scratchBase int) uint8 {
	lane := len(vals) - 1 // lanes/8 is a power of two
	clear(vals)
	for j, v := range row {
		vals[j&lane] = satmath.MaxU8x8(vals[j&lane], v-bias)
	}

	// Strided binary reduction through shared memory. Each stride step
	// is one partner load, one max, one store by the active half-warp
	// (consecutive cells: conflict-free spans). The partner's tail
	// lanes load as zero, the u8 max identity, so lanes at and past the
	// stride keep their value as inactive lanes do.
	lanes := w.Lanes()
	w.SharedSpanStoreWords(vals, scratchBase, lanes, 1)
	for stride := lanes / 2; stride > 0; stride >>= 1 {
		p := partner[:(stride+lanesPerWordU8-1)/lanesPerWordU8]
		w.SharedSpanLoadWords(p, scratchBase+stride, stride, 1)
		w.ALU(1)
		for j, v := range p {
			vals[j] = satmath.MaxU8x8(vals[j], v)
		}
		w.SharedSpanStoreWords(vals, scratchBase, stride, 1)
	}
	// Broadcast the result back to every lane (one shared read).
	w.SharedBroadcastU8(scratchBase)
	return uint8(vals[0])
}

// scratchMaxI16 is the 16-bit variant used by the Viterbi kernel (its
// rows are unbiased).
func scratchMaxI16(w *simt.Warp, row []uint64, vals, partner []uint64, scratchBase int) int16 {
	negInf := satmath.SplatI16(satmath.NegInf16)
	lane := len(vals) - 1 // lanes/4 is a power of two
	for k := range vals {
		vals[k] = negInf
	}
	for j, v := range row {
		vals[j&lane] = satmath.MaxI16x4(vals[j&lane], v)
	}

	lanes := w.Lanes()
	w.SharedSpanStoreWords(vals, scratchBase, lanes, 2)
	for stride := lanes / 2; stride > 0; stride >>= 1 {
		p := partner[:(stride+lanesPerWordI16-1)/lanesPerWordI16]
		w.SharedSpanLoadWords(p, scratchBase+2*stride, stride, 2)
		if stride < lanesPerWordI16 {
			// A zero tail is not the i16 identity: the lanes past the
			// stride must lose every comparison.
			keep := uint64(1)<<(16*stride) - 1
			p[0] = p[0]&keep | negInf&^keep
		}
		w.ALU(1)
		for j, v := range p {
			vals[j] = satmath.MaxI16x4(vals[j], v)
		}
		w.SharedSpanStoreWords(vals, scratchBase, stride, 2)
	}
	w.SharedBroadcastI16(scratchBase)
	return int16(vals[0])
}
