// Package cpu implements the HMMER 3.0 CPU baseline the paper compares
// against: the 8-bit saturating MSV filter and the 16-bit P7Viterbi
// filter in Farrar-striped SIMD form (a 128-bit vector is two uint64
// words of satmath SWAR lanes), plus a multicore database driver.
//
// The package also provides scalar "golden" filters that evaluate the
// same quantised recurrences sequentially. The golden filters define
// the exact integer semantics of the two algorithms; the striped CPU
// engines here and the warp-synchronous GPU kernels in internal/gpu
// must (and do, see the tests) reproduce their scores bit-for-bit.
package cpu

import (
	"math"

	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/satmath"
)

// FilterResult is the outcome of one filter invocation.
type FilterResult struct {
	// Score is the bit-score in nats. +Inf when Overflowed.
	Score float64
	// Overflowed reports that the quantised score saturated; the true
	// score is at least as large, and the sequence must be treated as
	// passing the filter.
	Overflowed bool
}

// MSVFilterScalar computes the quantised MSV filter score of dsq by
// direct sequential evaluation (paper Figure 2 model, Algorithm 1
// semantics). It is the golden reference for the vectorised engines.
func MSVFilterScalar(mp *profile.MSVProfile, dsq []byte) FilterResult {
	m := mp.M
	mmx := make([]uint8, m+1) // 0 is the -inf floor in the offset domain

	const base = uint8(profile.MSVBase)
	overflowAt := mp.OverflowThreshold()
	xJ := uint8(0)
	xB := satmath.SubU8(base, mp.TJB)

	for i := 0; i < len(dsq); i++ {
		cost := mp.MatCost[dsq[i]]
		xE := uint8(0)
		xBtbm := satmath.SubU8(xB, mp.TBM)
		prevDiag := uint8(0) // mmx[0] of the previous row
		for k := 1; k <= m; k++ {
			mpv := prevDiag
			prevDiag = mmx[k]
			sv := satmath.MaxU8(mpv, xBtbm)
			sv = satmath.AddU8(sv, mp.Bias)
			sv = satmath.SubU8(sv, cost[k])
			mmx[k] = sv
			xE = satmath.MaxU8(xE, sv)
		}
		if xE >= overflowAt {
			return FilterResult{Score: math.Inf(1), Overflowed: true}
		}
		xEtec := satmath.SubU8(xE, mp.TEC)
		xJ = satmath.MaxU8(xJ, xEtec)
		xB = satmath.SubU8(satmath.MaxU8(base, xJ), mp.TJB)
	}
	return FilterResult{Score: mp.ScoreToNats(xJ)}
}

// VitFilterScalar computes the quantised P7Viterbi filter score of dsq
// by direct sequential evaluation, with the within-row D-D recurrence
// resolved serially (paper Figure 3 model, Algorithm 2 semantics). It
// is the golden reference for the vectorised engines.
func VitFilterScalar(vp *profile.VitProfile, dsq []byte) FilterResult {
	m := vp.M
	neg := satmath.NegInf16
	mmx := make([]int16, m+1)
	imx := make([]int16, m+1)
	dmx := make([]int16, m+1)
	for k := 0; k <= m; k++ {
		mmx[k], imx[k], dmx[k] = neg, neg, neg
	}
	xJ, xC := neg, neg
	xB := vp.TMove // B(0) = N(0) + move; N stays 0 (loop cost approximated as 0)

	for i := 0; i < len(dsq); i++ {
		msc := vp.MatUnit[dsq[i]]
		xE := neg
		prevM, prevI, prevD := neg, neg, neg // row i-1 at k-1
		var newPrevM int16 = neg             // row i at k-1, for the D recurrence
		var dcv int16 = neg                  // D(i, k-1) running value
		for k := 1; k <= m; k++ {
			curM, curI, curD := mmx[k], imx[k], dmx[k]

			mv := satmath.MaxI16(
				satmath.MaxI16(satmath.AddI16(prevM, vp.TMM[k-1]), satmath.AddI16(prevI, vp.TIM[k-1])),
				satmath.MaxI16(satmath.AddI16(prevD, vp.TDM[k-1]), satmath.AddI16(xB, vp.TBM)),
			)
			mv = satmath.AddI16(mv, msc[k])

			iv := satmath.MaxI16(
				satmath.AddI16(curM, vp.TMI[k]),
				satmath.AddI16(curI, vp.TII[k]),
			)

			dv := satmath.MaxI16(
				satmath.AddI16(newPrevM, vp.TMD[k-1]),
				satmath.AddI16(dcv, vp.TDD[k-1]),
			)

			mmx[k], imx[k], dmx[k] = mv, iv, dv
			xE = satmath.MaxI16(xE, mv)

			prevM, prevI, prevD = curM, curI, curD
			newPrevM, dcv = mv, dv
		}
		xE = satmath.MaxI16(xE, dmx[m]) // local exit from D_M

		xJ = satmath.MaxI16(xJ, satmath.AddI16(xE, vp.TEJ))
		xC = satmath.MaxI16(xC, satmath.AddI16(xE, vp.TEC))
		xB = satmath.AddI16(satmath.MaxI16(0, xJ), vp.TMove)
	}
	if profile.Overflowed(xC) {
		return FilterResult{Score: math.Inf(1), Overflowed: true}
	}
	return FilterResult{Score: vp.ScoreToNats(xC)}
}
