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
// holds lanes 0-3 of stripe q, index 2*q+1 lanes 4-7. Each row runs
// through satmath's row primitives: the M/I update, the D seeds, and
// the D-D chain as rounds over the D row read two words (one stripe)
// behind itself.
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

	// The DP rows, each led by two words of wrap that the row's last
	// stripe, shifted up one lane, fills for the next row's stripe 0:
	// M and I double-buffered, so the next row reads stripe q-1 of the
	// previous one at word 2*q, and one D row, which also ends in two
	// words holding the chain's carry out of the last stripe. The D
	// row is rewritten only after the M/I update has read it.
	mrow, irow [2][]uint64
	drow       []uint64

	// wM and sM locate node M in a D row (word index, bit offset of its
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

// shiftI16 is the striped-diagonal wrap of word lanes (SSE pslldq).
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

	n := 2*q + 2
	rows := make([]uint64, 5*n+2)
	e.mrow = [2][]uint64{rows[:n], rows[n : 2*n]}
	e.irow = [2][]uint64{rows[2*n : 3*n], rows[3*n : 4*n]}
	e.drow = rows[4*n:]

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
	mPrev, mCur := e.mrow[0], e.mrow[1]
	iPrev, iCur := e.irow[0], e.irow[1]
	d := e.drow
	for j := range mPrev {
		mPrev[j], iPrev[j] = negv, negv
	}
	for j := range d {
		d[j] = negv
	}
	mi := satmath.VitMI{TMM: e.tMM, TIM: e.tIM, TDM: e.tDM, TMI: e.tMI, TII: e.tII}

	xJ, xC := neg, neg
	xB := vp.TMove

	for i := 0; i < len(dsq); i++ {
		xBv := satmath.SplatI16(satmath.AddI16(xB, vp.TBM))
		mPrev[0], mPrev[1] = shiftI16(mPrev[n], mPrev[n+1], neg)
		iPrev[0], iPrev[1] = shiftI16(iPrev[n], iPrev[n+1], neg)
		d[0], d[1] = shiftI16(d[n], d[n+1], neg)
		mi.M, mi.I = mCur[2:], iCur[2:]
		mi.SrcM, mi.SrcI, mi.SrcD = mPrev[:n], iPrev[:n], d[:n]
		mi.PrevM, mi.PrevI = mPrev[2:], iPrev[2:]
		mi.Emit = e.msc[dsq[i]]
		xE := satmath.HMaxI16x4(satmath.VitMIRowI16(&mi, xBv))

		// D: stripe 0 starts the chain at -inf; each stripe's M-D seed
		// lands one stripe on (the last one's in the carry), and one
		// round runs the serial chain D(q+1) = max(seed, D(q) + D-D).
		d[2], d[3] = negv, negv
		satmath.AddRowI16(d[4:], mCur[2:], e.tMD)
		satmath.DDRoundI16(d[4:], d[2:n+2], e.tDD)

		// The chain wraps from the last stripe into lane l+1 of stripe
		// 0: pass 0 is the mandatory completion sweep, and a Lazy-F
		// pass runs only while the wrapped carry still improves stripe
		// 0 (otherwise every later stripe already holds its
		// predecessor's candidate). A pass whose improvement dies out
		// part-way stores unchanged words from there on and leaves the
		// carry as it was, so the next pass's stripe-0 test ends the
		// loop: the pass counts are those of a test at every stripe.
		// At most VitWidth-1 iterated passes can ever be needed; in
		// practice rows almost never need any — that rarity is the
		// premise of the paper's parallel Lazy-F.
		info.Rows++
		rowPasses := 0
		for pass := 0; pass < VitWidth; pass++ {
			dc0, dc1 := shiftI16(d[n+2], d[n+3], neg)
			if pass > 0 {
				if !satmath.AnyGtI16x4(dc0, d[2]) && !satmath.AnyGtI16x4(dc1, d[3]) {
					break
				}
				rowPasses++
			}
			d[2], d[3] = satmath.MaxI16x4(d[2], dc0), satmath.MaxI16x4(d[3], dc1)
			d[n+2], d[n+3] = negv, negv // the round leaves the new carry here
			satmath.DDRoundI16(d[4:], d[2:n+2], e.tDD)
		}
		if rowPasses > 0 {
			info.RowsIterated++
			info.IteratedPasses += rowPasses
		}

		xE = satmath.MaxI16(xE, int16(d[2+e.wM]>>e.sM)) // local exit from D_M
		mPrev, mCur = mCur, mPrev
		iPrev, iCur = iCur, iPrev

		xJ = satmath.MaxI16(xJ, satmath.AddI16(xE, vp.TEJ))
		xC = satmath.MaxI16(xC, satmath.AddI16(xE, vp.TEC))
		xB = satmath.AddI16(satmath.MaxI16(0, xJ), vp.TMove)
	}
	if profile.Overflowed(xC) {
		return FilterResult{Score: math.Inf(1), Overflowed: true}, info
	}
	return FilterResult{Score: vp.ScoreToNats(xC)}, info
}
