package gpu

import (
	"hmmer3gpu/internal/satmath"
	"hmmer3gpu/internal/simt"
)

// Warp registers. The MSV and P7Viterbi kernels hold a warp's
// registers as satmath SWAR words — lane l of a 32-lane register is
// lane l%8 of word l/8 (u8 cells) or l%4 of word l/4 (i16 cells) — so
// one Go word operation advances eight or four SIMT lanes, and a row
// chunk moves between registers and shared memory as whole words
// (simt.SharedSpanLoadWords / SharedSpanStoreWords). What is charged
// to the device is what the lanes would have executed; only the host
// arithmetic is word-wide.

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
// Both run on register words. The butterfly's log2(lanes) exchange
// rounds are charged and its result — the same maximum on every lane —
// is computed as a fold of the words. The Fermi rounds really go
// through the scratch region, store / partner load / store at the
// addresses and sizes the lanes would use, so a corrupted scratch byte
// is read by the same load as on the device.

// chargeButterfly accounts a butterfly reduction's log2(lanes) rounds
// of one XOR shuffle and one max each.
func chargeButterfly(w *simt.Warp) {
	for mask := w.Lanes() / 2; mask > 0; mask >>= 1 {
		w.ShuffleTouch()
		w.ALU(1)
	}
}

// warpMaxU8 reduces a u8 register to the warp-wide maximum. vals is
// consumed; partner is a scratch register of the same size;
// scratchBase is the warp's shared scratch offset (Fermi path only).
func warpMaxU8(w *simt.Warp, vals, partner []uint64, scratchBase int) uint8 {
	lanes := w.Lanes()
	if w.HasShuffle() {
		chargeButterfly(w)
		acc := vals[0]
		for _, v := range vals[1:] {
			acc = satmath.MaxU8x8(acc, v)
		}
		return satmath.HMaxU8x8(acc) // identical on every lane (broadcast)
	}

	// Fermi fallback: strided binary reduction through shared memory.
	// Each stride step is one partner load, one max, one store by the
	// active half-warp (consecutive cells: conflict-free spans). The
	// partner's tail lanes load as zero, the u8 max identity, so lanes
	// at and past the stride keep their value as inactive lanes do.
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

// warpMaxI16 is the 16-bit variant used by the Viterbi kernel.
func warpMaxI16(w *simt.Warp, vals, partner []uint64, scratchBase int) int16 {
	lanes := w.Lanes()
	if w.HasShuffle() {
		chargeButterfly(w)
		acc := vals[0]
		for _, v := range vals[1:] {
			acc = satmath.MaxI16x4(acc, v)
		}
		return satmath.HMaxI16x4(acc)
	}

	w.SharedSpanStoreWords(vals, scratchBase, lanes, 2)
	negInf := satmath.SplatI16(satmath.NegInf16)
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
