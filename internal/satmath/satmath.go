// Package satmath provides the saturating integer arithmetic used by
// the quantised MSV (8-bit unsigned) and Viterbi (16-bit signed)
// filters. These mirror the SSE psubusb/paddusb/paddsw/psubsw
// semantics that HMMER3's vector filters rely on, in two forms that
// agree lane for lane, so every engine's scores agree bit-for-bit:
//
//   - one lane per call (this file): what the scalar golden filters
//     use, what every engine's once-per-row specials use, and the oracle
//     the word-wide form is tested against;
//   - SIMD within a register (swar.go): eight byte lanes or four word
//     lanes per uint64, branch-free, what the striped CPU engines in
//     internal/cpu and the simulated-GPU kernels in internal/gpu run
//     their DP cells on;
//   - whole rows of those words (rows.go), one primitive per filter
//     recurrence and the MSV loop, SSE2 on amd64, word ops elsewhere.
package satmath

// AddU8 returns a+b saturated to 255.
func AddU8(a, b uint8) uint8 {
	s := uint16(a) + uint16(b)
	if s > 255 {
		return 255
	}
	return uint8(s)
}

// SubU8 returns a-b saturated to 0.
func SubU8(a, b uint8) uint8 {
	if a < b {
		return 0
	}
	return a - b
}

// MaxU8 returns the larger of a and b.
func MaxU8(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}

// AddI16 returns a+b saturated to [-32768, 32767].
func AddI16(a, b int16) int16 {
	s := int32(a) + int32(b)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return int16(s)
}

// MaxI16 returns the larger of a and b.
func MaxI16(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}

// NegInf16 is the 16-bit stand-in for minus infinity. Saturating adds
// keep values at or near this floor, which is the behaviour the
// Viterbi filter depends on.
const NegInf16 = int16(-32768)
