package satmath

import "encoding/binary"

// SWAR lanes: eight unsigned byte lanes (U8x8) or four signed word
// lanes (I16x4) packed into one uint64, lane 0 in the low bits. Every
// operation is branch-free carry/borrow-mask arithmetic: the top bit
// of each lane is masked out before the word-wide add or subtract so
// nothing crosses a lane boundary, then put back from the operands'
// top bits and the carry (borrow) into them. Results equal the scalar
// helpers in satmath.go lane for lane; the tests hold the two together.
//
// The layout is little-endian memory order: lane l of a row of cells
// stored as consecutive little-endian bytes is lane l%8 (l%4) of word
// l/8 (l/4). PackLanes/UnpackLanes move between the two, and are the
// only place that knows it: the striped CPU engines run on these lanes,
// and so does a simulated warp's register file in internal/gpu (32
// lanes in four or eight words), which loads and stores them through
// internal/simt's word-shaped shared-memory spans. On a little-endian
// host a move is a plain copy, so on amd64 each is one SSE2 copy
// (lanes_amd64.s); the generic word loops below run everywhere else and
// are the reference the tests hold the copy to.
//
// Two consecutive words are one 128-bit vector of HMMER 3.0's SSE
// filters (16 u8 or 8 i16 lanes), the low word holding the low lanes,
// and on amd64 the row primitives of rows.go run them as one SSE2
// register: MaxU8x8 is HMMER's _mm_max_epu8 (PMAXUB), MSVStepU8x8's
// subtract after its maxes is _mm_subs_epu8 (PSUBUSB), AddI16x4 is
// _mm_adds_epi16 (PADDSW) and MaxI16x4 is _mm_max_epi16 (PMAXSW). The
// single-word ops below stay for ragged row tails, the once-per-row
// specials and the generic (non-amd64) row loops.
const (
	lsb8  = 0x0101010101010101
	msb8  = 0x8080808080808080
	lsb16 = 0x0001000100010001
	msb16 = 0x8000800080008000
)

// PackLanes fills dst with the lanes held in src as consecutive
// little-endian bytes (one byte per u8 lane, two per i16 lane), lane 0
// first; lanes of dst past the end of src are zero, and bytes of src
// past the end of dst are ignored.
func PackLanes(dst []uint64, src []byte) {
	packLanes(dst, src[:min(len(src), 8*len(dst))])
}

// UnpackLanes is the inverse of PackLanes: it writes the first
// len(dst) lane bytes of src to dst and nothing past them.
func UnpackLanes(dst []byte, src []uint64) {
	unpackLanes(dst[:min(len(dst), 8*len(src))], src)
}

func packLanesGeneric(dst []uint64, src []byte) {
	i := 0
	for ; i < len(dst) && len(src) >= 8; i++ {
		dst[i] = binary.LittleEndian.Uint64(src)
		src = src[8:]
	}
	if i == len(dst) {
		return
	}
	var v uint64
	for b := len(src) - 1; b >= 0; b-- {
		v = v<<8 | uint64(src[b])
	}
	dst[i] = v
	clear(dst[i+1:])
}

func unpackLanesGeneric(dst []byte, src []uint64) {
	i := 0
	for ; i < len(src) && len(dst) >= 8; i++ {
		binary.LittleEndian.PutUint64(dst, src[i])
		dst = dst[8:]
	}
	if i == len(src) {
		return
	}
	for b := range dst {
		dst[b] = byte(src[i] >> (8 * b))
	}
}

// SplatU8 returns x in all eight byte lanes.
func SplatU8(x uint8) uint64 { return uint64(x) * lsb8 }

// SplatI16 returns x in all four word lanes.
func SplatI16(x int16) uint64 { return uint64(uint16(x)) * lsb16 }

// ltU8x8 sets the top bit of every byte lane where a < b: the borrow
// out of the lane's subtraction.
func ltU8x8(a, b uint64) uint64 {
	e := ^((a | msb8) - (b &^ msb8)) // top bit set = the low 7 bits borrowed
	// Top bits differ: a < b where b's is the set one. Equal: the
	// borrow decides.
	return (e ^ ((a ^ b) & (e ^ b))) & msb8
}

// MaxU8x8 is MaxU8 on eight byte lanes.
func MaxU8x8(a, b uint64) uint64 {
	return a ^ ((a ^ b) & ((ltU8x8(a, b) >> 7) * 0xFF))
}

// MSVStepU8x8 is the MSV cell step, max(mmx, xB) + bias - em (Algorithm
// 1, line 15), on eight lanes of the biased row every MSV engine stores:
// cells carry +bias, the floor is bias, xBv = splat(xB - tBM + bias). It
// returns the new cells unbiased; the caller stores them plus
// splat(bias) with a plain add, which cannot carry into the next lane:
// a row whose largest cell reaches 255 - bias (OverflowThreshold)
// overflows before anything reads it back. Any byte read back — a
// flipped one too — feeds only this max and sub, so it is well-defined.
func MSVStepU8x8(cell, xBv, cost uint64) uint64 {
	// max(cell, xBv, cost) - cost, spelt out to stay inlinable.
	cell ^= (cell ^ xBv) & (ltU8x8(cell, xBv) >> 7 * 0xFF)
	cell ^= (cell ^ cost) & (ltU8x8(cell, cost) >> 7 * 0xFF)
	return cell - cost
}

// HMaxU8x8 returns the largest of the eight byte lanes.
func HMaxU8x8(a uint64) uint8 {
	a = MaxU8x8(a, a>>32)
	a = MaxU8x8(a, a>>16)
	return uint8(MaxU8x8(a, a>>8))
}

// gtI16x4 sets the top bit of every word lane where a > b (signed).
func gtI16x4(a, b uint64) uint64 {
	e := ^((b | msb16) - (a &^ msb16)) // top bit set = low 15 bits of b < those of a
	// Signs differ: a > b where b is the negative one. Agree: the low
	// bits decide.
	return (e ^ ((a ^ b) & (e ^ b))) & msb16
}

// AddI16x4 is AddI16 on four word lanes.
func AddI16x4(a, b uint64) uint64 {
	s := ((a &^ msb16) + (b &^ msb16)) ^ ((a ^ b) & msb16) // wrapping sum
	// Overflow: operands agree in sign and the sum does not. The
	// saturated lane is 0x7FFF, or 0x8000 where a is negative.
	ovf := ((^(a ^ b) & (a ^ s) & msb16) >> 15) * 0xFFFF
	sat := ((a >> 15) & lsb16) + (msb16 - lsb16)
	return s ^ ((s ^ sat) & ovf)
}

// MaxI16x4 is MaxI16 on four word lanes.
func MaxI16x4(a, b uint64) uint64 {
	return b ^ ((a ^ b) & ((gtI16x4(a, b) >> 15) * 0xFFFF))
}

// AnyGtI16x4 reports whether any word lane of a exceeds the matching
// lane of b.
func AnyGtI16x4(a, b uint64) bool { return gtI16x4(a, b) != 0 }

// HMaxI16x4 returns the largest of the four word lanes.
func HMaxI16x4(a uint64) int16 {
	a = MaxI16x4(a, a>>32)
	return int16(MaxI16x4(a, a>>16))
}
