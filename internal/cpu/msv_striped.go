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
// HMMER's intrinsics in Go assembly. The MSV engine scores a sequence
// in one satmath call (_mm_max_epu8, _mm_subs_epu8), as p7_MSVFilter
// is one loop; the Viterbi engine makes one per row and recurrence
// (_mm_adds_epi16, _mm_max_epi16), with single-word SWAR ops elsewhere.
const (
	// MSVWidth is the byte-lane count of the MSV filter vectors.
	MSVWidth = 16
	// VitWidth is the word-lane count of the Viterbi filter vectors.
	VitWidth = 8
)

// MSVEngine is the striped 16-lane byte MSV filter — the CPU side of
// the paper's comparison ("16, 8-bit SIMD registers thus achieving
// 16-fold speedup on a commodity processor"). Build one per profile and
// reuse it across sequences; it is not safe for concurrent use (each
// worker goroutine owns its own engine).
type MSVEngine struct {
	mp *profile.MSVProfile
	// rsc holds the striped cost rows, residue r's at rsc[r*n:(r+1)*n]
	// (n = 2Q): word 2q holds lanes 0-7 of stripe q, word 2q+1 8-15.
	rsc []uint64
	// rows double-buffers the DP row: two words of wrap (the row's last
	// stripe shifted up one lane, which feeds the next row's stripe 0)
	// and then the row, so the next row reads stripe q-1 at word 2*q.
	rows [2][]uint64
}

// NewMSVEngine prepares the striped emission layout for mp.
func NewMSVEngine(mp *profile.MSVProfile) *MSVEngine {
	q := profile.StripedSegments(mp.M, MSVWidth)
	n := 2 * q
	e := &MSVEngine{mp: mp, rsc: make([]uint64, len(mp.MatCost)*n)}
	for r := range mp.MatCost {
		for i := 0; i < MSVWidth*q; i++ { // lane i%16 of stripe i/16
			c := mp.StripedCost(r, i/MSVWidth, i%MSVWidth, MSVWidth)
			e.rsc[r*n+i/8] |= uint64(c) << (8 * (i % 8))
		}
	}
	rows := make([]uint64, 2*(n+2))
	e.rows = [2][]uint64{rows[:n+2], rows[n+2:]}
	return e
}

// Filter computes the MSV filter score of dsq. The scores are
// bit-identical to MSVFilterScalar.
func (e *MSVEngine) Filter(dsq []byte) FilterResult {
	mp := e.mp
	// The rows are biased (satmath.MSVStepU8x8): cells start at +bias.
	biasv := satmath.SplatU8(mp.Bias)
	for i := range e.rows[0] {
		e.rows[0][i] = biasv
	}
	xJ, overflowed := satmath.MSVFilterU8(e.rows[0], e.rows[1], e.rsc, dsq, satmath.MSVParams{
		Bias: mp.Bias, TBM: mp.TBM, TEC: mp.TEC, TJB: mp.TJB,
		Base: profile.MSVBase, Overflow: mp.OverflowThreshold(),
	})
	if overflowed {
		return FilterResult{Score: math.Inf(1), Overflowed: true}
	}
	return FilterResult{Score: mp.ScoreToNats(xJ)}
}
