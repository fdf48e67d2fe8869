package cpu

import (
	"math"

	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/satmath"
)

// VitEngine is the striped 8-lane word P7Viterbi filter with Farrar's
// lazy-F treatment of the D-D chain — HMMER 3.0's ViterbiFilter, the
// second stage of the paper's CPU baseline. Not safe for concurrent
// use; each worker owns its own engine.
//
// Every striped table and DP row is two words per stripe: index 2*q
// holds lanes 0-3 of stripe q, index 2*q+1 lanes 4-7.
type VitEngine struct {
	vp *profile.VitProfile
	q  int

	// msc[r] is the striped emission row for residue r (lane l of
	// stripe q holds node q + l*Q + 1).
	msc [][]uint64
	// Source-aligned transition rows for the M update: lane l of
	// stripe q holds the transition out of node q + l*Q (= k-1).
	tMM, tIM, tDM []uint64
	// Same-node transition rows: lane l of stripe q holds the
	// transition out of node q + l*Q + 1 (= k).
	tMI, tII, tMD, tDD []uint64

	mmx, imx, dmx []uint64

	// wM and sM locate node M in dmx (word index, bit offset of its
	// lane) for the D_M local exit contribution to E.
	wM int
	sM uint
}

// LazyFInfo counts the work done by the lazy-F correction loop over
// one sequence: how many DP rows needed iterated correction passes
// beyond the mandatory completion sweep, and how many such passes ran
// in total. The paper's §III-B argument — that the D-D path is rarely
// taken, so lazy evaluation beats unconditional prefix sums — is
// quantified by these counters (see the lazyf ablation benchmark).
type LazyFInfo struct {
	Rows           int // DP rows processed
	RowsIterated   int // rows that needed >= 1 iterated pass
	IteratedPasses int // total iterated passes
}

// shiftI16 is shiftU8 for word lanes.
func shiftI16(w0, w1 uint64, fill int16) (uint64, uint64) {
	return w0<<16 | uint64(uint16(fill)), w1<<16 | w0>>48
}

// NewVitEngine prepares the striped layouts for vp.
func NewVitEngine(vp *profile.VitProfile) *VitEngine {
	q := profile.StripedSegments(vp.M, VitWidth)
	e := &VitEngine{vp: vp, q: q}

	// stripe puts src[k-back] in lane l of stripe qi for node
	// k = qi + l*q + 1, minus infinity past M.
	stripe := func(src []int16, back int) []uint64 {
		out := make([]uint64, 2*q)
		for qi := 0; qi < q; qi++ {
			for l := 0; l < VitWidth; l++ {
				v := satmath.NegInf16
				if k := qi + l*q + 1; k <= vp.M {
					v = src[k-back]
				}
				out[2*qi+l/4] |= uint64(uint16(v)) << (16 * (l % 4))
			}
		}
		return out
	}

	e.msc = make([][]uint64, len(vp.MatUnit))
	for r := range vp.MatUnit {
		e.msc[r] = stripe(vp.MatUnit[r], 0)
	}
	e.tMM = stripe(vp.TMM, 1)
	e.tIM = stripe(vp.TIM, 1)
	e.tDM = stripe(vp.TDM, 1)
	e.tMI = stripe(vp.TMI, 0)
	e.tII = stripe(vp.TII, 0)
	e.tMD = stripe(vp.TMD, 0)
	e.tDD = stripe(vp.TDD, 0)

	e.mmx = make([]uint64, 2*q)
	e.imx = make([]uint64, 2*q)
	e.dmx = make([]uint64, 2*q)

	qM, lM := (vp.M-1)%q, (vp.M-1)/q
	e.wM = 2*qM + lM/4
	e.sM = uint(16 * (lM % 4))
	return e
}

// Filter computes the Viterbi filter score of dsq. The scores are
// bit-identical to VitFilterScalar.
func (e *VitEngine) Filter(dsq []byte) FilterResult {
	res, _ := e.run(dsq)
	return res
}

// FilterWithStats computes the filter score and reports lazy-F
// correction statistics for the sequence.
func (e *VitEngine) FilterWithStats(dsq []byte) (FilterResult, LazyFInfo) {
	return e.run(dsq)
}

func (e *VitEngine) run(dsq []byte) (FilterResult, LazyFInfo) {
	vp := e.vp
	n := 2 * e.q
	neg := satmath.NegInf16
	negv := satmath.SplatI16(neg)
	var info LazyFInfo
	// Reslicing every row to one length lets the compiler drop the
	// bounds checks in the stripe loops.
	mmx, imx, dmx := e.mmx[:n], e.imx[:n], e.dmx[:n]
	tMM, tIM, tDM := e.tMM[:n], e.tIM[:n], e.tDM[:n]
	tMI, tII, tMD, tDD := e.tMI[:n], e.tII[:n], e.tMD[:n], e.tDD[:n]
	for j := range mmx {
		mmx[j], imx[j], dmx[j] = negv, negv, negv
	}

	xJ, xC := neg, neg
	xB := vp.TMove

	for i := 0; i < len(dsq); i++ {
		msc := e.msc[dsq[i]][:n]
		xE0, xE1 := negv, negv
		xBv := satmath.SplatI16(satmath.AddI16(xB, vp.TBM))

		mp0, mp1 := shiftI16(mmx[n-2], mmx[n-1], neg)
		ip0, ip1 := shiftI16(imx[n-2], imx[n-1], neg)
		dp0, dp1 := shiftI16(dmx[n-2], dmx[n-1], neg)
		dc0, dc1 := negv, negv

		for j := 0; j+1 < n; j += 2 {
			sv0 := satmath.MaxI16x4(
				satmath.MaxI16x4(satmath.AddI16x4(mp0, tMM[j]), satmath.AddI16x4(ip0, tIM[j])),
				satmath.MaxI16x4(satmath.AddI16x4(dp0, tDM[j]), xBv),
			)
			sv1 := satmath.MaxI16x4(
				satmath.MaxI16x4(satmath.AddI16x4(mp1, tMM[j+1]), satmath.AddI16x4(ip1, tIM[j+1])),
				satmath.MaxI16x4(satmath.AddI16x4(dp1, tDM[j+1]), xBv),
			)
			sv0 = satmath.AddI16x4(sv0, msc[j])
			sv1 = satmath.AddI16x4(sv1, msc[j+1])
			xE0 = satmath.MaxI16x4(xE0, sv0)
			xE1 = satmath.MaxI16x4(xE1, sv1)

			mp0, mp1, ip0, ip1, dp0, dp1 = mmx[j], mmx[j+1], imx[j], imx[j+1], dmx[j], dmx[j+1]
			mmx[j], mmx[j+1] = sv0, sv1
			imx[j] = satmath.MaxI16x4(satmath.AddI16x4(mp0, tMI[j]), satmath.AddI16x4(ip0, tII[j]))
			imx[j+1] = satmath.MaxI16x4(satmath.AddI16x4(mp1, tMI[j+1]), satmath.AddI16x4(ip1, tII[j+1]))

			dmx[j], dmx[j+1] = dc0, dc1
			dc0 = satmath.MaxI16x4(satmath.AddI16x4(sv0, tMD[j]), satmath.AddI16x4(dc0, tDD[j]))
			dc1 = satmath.MaxI16x4(satmath.AddI16x4(sv1, tMD[j+1]), satmath.AddI16x4(dc1, tDD[j+1]))
		}

		// Mandatory completion sweep: the D-D chain wraps from the last
		// stripe into lane l+1 of stripe 0.
		dc0, dc1 = shiftI16(dc0, dc1, neg)
		for j := 0; j+1 < n; j += 2 {
			dmx[j], dmx[j+1] = satmath.MaxI16x4(dmx[j], dc0), satmath.MaxI16x4(dmx[j+1], dc1)
			dc0, dc1 = satmath.AddI16x4(dmx[j], tDD[j]), satmath.AddI16x4(dmx[j+1], tDD[j+1])
		}

		// Lazy-F: iterate only while the wrapped chain still improves
		// some D cell. The chain decays monotonically (D-D costs are
		// negative), so as soon as one stripe shows no improvement the
		// whole remaining chain is dominated and we can stop. At most
		// VitWidth-1 iterated passes can ever be needed; in practice
		// rows almost never need any — that rarity is the premise of
		// the paper's parallel Lazy-F.
		info.Rows++
		rowPasses := 0
	lazyf:
		for pass := 0; pass < VitWidth-1; pass++ {
			dc0, dc1 = shiftI16(dc0, dc1, neg)
			for j := 0; j+1 < n; j += 2 {
				if !satmath.AnyGtI16x4(dc0, dmx[j]) && !satmath.AnyGtI16x4(dc1, dmx[j+1]) {
					break lazyf
				}
				dmx[j], dmx[j+1] = satmath.MaxI16x4(dmx[j], dc0), satmath.MaxI16x4(dmx[j+1], dc1)
				dc0, dc1 = satmath.AddI16x4(dmx[j], tDD[j]), satmath.AddI16x4(dmx[j+1], tDD[j+1])
				if j == 0 {
					rowPasses++
				}
			}
		}
		if rowPasses > 0 {
			info.RowsIterated++
			info.IteratedPasses += rowPasses
		}

		xE := satmath.HMaxI16x4(satmath.MaxI16x4(xE0, xE1))
		xE = satmath.MaxI16(xE, int16(dmx[e.wM]>>e.sM)) // local exit from D_M

		xJ = satmath.MaxI16(xJ, satmath.AddI16(xE, vp.TEJ))
		xC = satmath.MaxI16(xC, satmath.AddI16(xE, vp.TEC))
		xB = satmath.AddI16(satmath.MaxI16(0, xJ), vp.TMove)
	}
	if profile.Overflowed(xC) {
		return FilterResult{Score: math.Inf(1), Overflowed: true}, info
	}
	return FilterResult{Score: vp.ScoreToNats(xC)}, info
}
