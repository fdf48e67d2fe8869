package cpu

import (
	"math"

	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/satmath"
)

// HMMER 3.0's filters use 128-bit SSE registers: 16 unsigned byte
// lanes for MSV, 8 signed word lanes for the Viterbi filter. The
// paper's CPU baseline is exactly this configuration. Here one such
// vector is two uint64 words of satmath SWAR lanes, the low word
// holding the low lanes, and on amd64 it is an SSE2 register again:
// the engines run each row through satmath's row primitives, which
// are HMMER's intrinsics in Go assembly — _mm_max_epu8 and
// _mm_subs_epu8 for the MSV step, _mm_adds_epi16 and _mm_max_epi16 for
// the Viterbi M/I update, its D seeds and the D-D chain — and the
// single-word SWAR ops elsewhere.
const (
	// MSVWidth is the byte-lane count of the MSV filter vectors.
	MSVWidth = 16
	// VitWidth is the word-lane count of the Viterbi filter vectors.
	VitWidth = 8
)

// shiftU8 moves every byte lane of the vector (w0, w1) up by one (lane
// l takes lane l-1, lane 8 takes the top lane of w0) and fills lane 0
// with fill — the striped-diagonal wrap (SSE pslldq by one element).
func shiftU8(w0, w1 uint64, fill uint8) (uint64, uint64) {
	return w0<<8 | uint64(fill), w1<<8 | w0>>56
}

// MSVEngine is the striped 16-lane byte MSV filter — the CPU side of
// the paper's comparison ("16, 8-bit SIMD registers thus achieving
// 16-fold speedup on a commodity processor"). Build one per profile and
// reuse it across sequences; it is not safe for concurrent use (each
// worker goroutine owns its own engine).
type MSVEngine struct {
	mp *profile.MSVProfile
	// rsc[r] is the striped emission cost row for residue r, two words
	// per stripe: rsc[r][2*q] holds lanes 0-7 of stripe q, rsc[r][2*q+1]
	// lanes 8-15.
	rsc [][]uint64
	// rows double-buffers the DP row: two words of wrap (the row's last
	// stripe shifted up one lane, which feeds the next row's stripe 0)
	// and then the row, so the next row reads stripe q-1 at word 2*q.
	rows [2][]uint64
}

// NewMSVEngine prepares the striped emission layout for mp.
func NewMSVEngine(mp *profile.MSVProfile) *MSVEngine {
	q := profile.StripedSegments(mp.M, MSVWidth)
	striped := mp.Striped(MSVWidth)
	e := &MSVEngine{mp: mp}
	e.rsc = make([][]uint64, len(striped))
	for r := range striped {
		row := make([]uint64, 2*q)
		for i, c := range striped[r] {
			row[i/8] |= uint64(c) << (8 * (i % 8))
		}
		e.rsc[r] = row
	}
	rows := make([]uint64, 2*(2*q+2))
	e.rows = [2][]uint64{rows[:2*q+2], rows[2*q+2:]}
	return e
}

// Filter computes the MSV filter score of dsq. The scores are
// bit-identical to MSVFilterScalar.
func (e *MSVEngine) Filter(dsq []byte) FilterResult {
	mp := e.mp
	n := len(e.rsc[0])
	prev, cur := e.rows[0], e.rows[1]
	// The rows are biased (satmath.MSVStepU8x8): every cell carries
	// +bias, so the row primitive pays a plain word add for it.
	biasv := satmath.SplatU8(mp.Bias)
	for i := range prev {
		prev[i] = biasv
	}

	const base = uint8(profile.MSVBase)
	overflowAt := mp.OverflowThreshold()
	xJ := uint8(0)
	xB := satmath.SubU8(base, mp.TJB)

	for i := 0; i < len(dsq); i++ {
		xBv := satmath.SplatU8(satmath.AddU8(satmath.SubU8(xB, mp.TBM), mp.Bias))
		// The striped diagonal: the previous row's last stripe, lanes
		// shifted up one, feeds stripe 0.
		prev[0], prev[1] = shiftU8(prev[n], prev[n+1], mp.Bias)
		xE := satmath.HMaxU8x8(satmath.MSVRowU8(cur[2:], prev[:n], e.rsc[dsq[i]], xBv, biasv))
		prev, cur = cur, prev
		if xE >= overflowAt {
			return FilterResult{Score: math.Inf(1), Overflowed: true}
		}
		xJ = satmath.MaxU8(xJ, satmath.SubU8(xE, mp.TEC))
		xB = satmath.SubU8(satmath.MaxU8(base, xJ), mp.TJB)
	}
	return FilterResult{Score: mp.ScoreToNats(xJ)}
}
