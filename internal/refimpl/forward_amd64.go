package refimpl

import "hmmer3gpu/internal/profile"

// forwardRowPair runs one Forward row for two targets, lane 0 and lane
// 1 (forward_amd64.s), on t, msca and mscb of M+1 entries and row of
// 6(M+1). SSE2 has no fused multiply-add: each lane rounds as Forward.
//
//go:noescape
func forwardRowPair(row []float64, t []profile.OddsNode, msca, mscb []float64, ea, eb float64) (xEa, xEb float64)

// ForwardPair returns Forward(p, a) and Forward(p, b), bit for bit: a
// and b share each SSE2 register, so a transition is loaded once for
// both. The specials and rescales stay in Go, a lane at a time, and the
// shorter target's lane is zeroed at its end, to add exact zeros.
func ForwardPair(p *profile.Profile, a, b []byte) (float64, float64) {
	o := &p.Odds
	m := p.M
	// row[2*(3k+s)+l] is lane l's state s (M, I, D) at node k.
	row := make([]float64, 6*(m+1))
	dsq := [2][]byte{a, b}
	s := [2]fwdSpecials{{xN: 1, xB: o.TMove}, {xN: 1, xB: o.TMove}}
	var score [2]float64
	// A finished lane's zero row may be multiplied by any emissions.
	msc := [2][]float64{o.MSC[0][:m+1], o.MSC[0][:m+1]}
	for i := 0; ; i++ {
		for l := range dsq {
			if i == len(dsq[l]) {
				score[l], s[l] = s[l].score(p), fwdSpecials{}
				for j := l; j < len(row); j += 2 {
					row[j] = 0
				}
			} else if i < len(dsq[l]) {
				msc[l] = o.MSC[dsq[l][i]][:m+1]
			}
		}
		if i >= len(a) && i >= len(b) {
			return score[0], score[1]
		}
		xEa, xEb := forwardRowPair(row, o.T[:m+1], msc[0], msc[1], s[0].xB*o.TBM, s[1].xB*o.TBM)
		for l, xE := range [2]float64{xEa, xEb} {
			if i < len(dsq[l]) {
				s[l].endRow(o, xE, row, l, 2)
			}
		}
	}
}
