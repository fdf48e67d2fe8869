// Package refimpl holds the full-precision (float64) generic dynamic
// programming implementations of the HMMER3 scoring algorithms: MSV,
// Viterbi and Forward. They are deliberately simple — row matrices, no
// vectorisation — and serve as the ground truth every optimised engine
// (striped CPU filters, GPU kernels) is validated against. Forward is
// also the pipeline's host Forward stage, so it alone runs in
// odds-ratio space with rescaling; the package's tests hold it to the
// log-space recurrence and to a log-space Backward kept in the tests.
// ForwardPair scores two targets side by side in SSE2 on amd64; scalar
// Forward is its oracle, bit for bit, and its path on other GOARCHes.
package refimpl

import (
	"math"

	"hmmer3gpu/internal/profile"
)

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func max4(a, b, c, d float64) float64 {
	return max2(max2(a, b), max2(c, d))
}

// logSum returns ln(exp(a)+exp(b)) stably.
func logSum(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// MSV computes the full-precision Multiple Segment Viterbi score (nats)
// of dsq against the profile. The profile must have SetLength applied
// for the target's length.
func MSV(p *profile.Profile, dsq []byte) float64 {
	m := p.M
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for k := range prev {
		prev[k] = profile.NegInf
	}
	xN := 0.0
	xB := p.TMove
	xJ, xC := profile.NegInf, profile.NegInf

	for i := 0; i < len(dsq); i++ {
		msc := p.MSC[dsq[i]]
		xE := profile.NegInf
		cur[0] = profile.NegInf
		for k := 1; k <= m; k++ {
			sc := max2(prev[k-1], xB+p.TBM) + msc[k]
			cur[k] = sc
			xE = max2(xE, sc)
		}
		xJ = max2(xJ+p.TLoop, xE+p.TEJ)
		xC = max2(xC+p.TLoop, xE+p.TEC)
		xN += p.TLoop
		xB = max2(xN, xJ) + p.TMove
		prev, cur = cur, prev
	}
	return xC + p.TMove
}

// Viterbi computes the full-precision P7Viterbi score (nats) of dsq
// against the profile (multihit local mode).
func Viterbi(p *profile.Profile, dsq []byte) float64 {
	m := p.M
	type row struct{ mx, ix, dx []float64 }
	newRow := func() row {
		r := row{
			mx: make([]float64, m+1),
			ix: make([]float64, m+1),
			dx: make([]float64, m+1),
		}
		for k := 0; k <= m; k++ {
			r.mx[k], r.ix[k], r.dx[k] = profile.NegInf, profile.NegInf, profile.NegInf
		}
		return r
	}
	prev, cur := newRow(), newRow()
	xN := 0.0
	xB := p.TMove
	xJ, xC := profile.NegInf, profile.NegInf

	for i := 0; i < len(dsq); i++ {
		msc := p.MSC[dsq[i]]
		xE := profile.NegInf
		cur.mx[0], cur.ix[0], cur.dx[0] = profile.NegInf, profile.NegInf, profile.NegInf
		for k := 1; k <= m; k++ {
			mv := max4(
				prev.mx[k-1]+p.TMM[k-1],
				prev.ix[k-1]+p.TIM[k-1],
				prev.dx[k-1]+p.TDM[k-1],
				xB+p.TBM,
			) + msc[k]
			cur.mx[k] = mv
			// Insert state (emission score 0 in local mode).
			cur.ix[k] = max2(prev.mx[k]+p.TMI[k], prev.ix[k]+p.TII[k])
			// Delete state: within-row dependency.
			cur.dx[k] = max2(cur.mx[k-1]+p.TMD[k-1], cur.dx[k-1]+p.TDD[k-1])
			xE = max2(xE, mv)
		}
		xE = max2(xE, cur.dx[m]) // local exit from D_M
		xJ = max2(xJ+p.TLoop, xE+p.TEJ)
		xC = max2(xC+p.TLoop, xE+p.TEC)
		xN += p.TLoop
		xB = max2(xN, xJ) + p.TMove
		prev, cur = cur, prev
	}
	return xC + p.TMove
}

// The window the Forward row's mass is kept in, [2^-256, 2^256]. A row
// multiplies the mass by at most the largest emission odds, far below
// 2^256, so checking once per row keeps every live value clear of
// overflow and of the subnormals.
var fwdHigh, fwdLow = math.Ldexp(1, 256), math.Ldexp(1, -256)

// Forward computes the full-precision Forward score (nats): the total
// log-likelihood ratio summed over all alignments, the scoring system
// HMMER 3.0 introduced over optimal-alignment Viterbi scores.
//
// The recurrence runs in odds-ratio space over p.Odds, as HMMER's own
// Forward does: multiply-adds, no logarithm per cell. One row is
// updated in place. Whenever the row's mass leaves the safe window —
// upward on a homolog, downward on a target far longer than the
// configured length — the row and the specials are rescaled by an
// exact power of two, and the exponents add back into the score.
func Forward(p *profile.Profile, dsq []byte) float64 {
	o := &p.Odds
	m := p.M
	// row[3k], row[3k+1], row[3k+2] are M_k, I_k, D_k; node 0 stays 0.
	row := make([]float64, 3*(m+1))
	s := fwdSpecials{xN: 1, xB: o.TMove}

	for _, x := range dsq {
		msc := o.MSC[x][:m+1]
		entry := s.xB * o.TBM
		xE := 0.0
		var pm, pi, pd float64 // previous row, node k-1
		var cm, cd float64     // this row, node k-1
		for k := 1; k <= m; k++ {
			in, at := &o.T[k-1], &o.T[k] // transitions into node k, and within it
			cell := row[3*k : 3*k+3]
			om, oi, od := cell[0], cell[1], cell[2]
			mv := (pm*in.MM + pi*in.IM + pd*in.DM + entry) * msc[k]
			dv := cm*in.MD + cd*in.DD
			cell[0] = mv
			cell[1] = om*at.MI + oi*at.II
			cell[2] = dv
			xE += mv
			pm, pi, pd = om, oi, od
			cm, cd = mv, dv
		}
		xE += cd // local exit from D_M
		s.endRow(o, xE, row, 0, 1)
	}
	return s.score(p)
}

// fwdSpecials is one target's Forward special states between rows.
type fwdSpecials struct {
	xN, xJ, xC, xB float64
	shift          int // the true values are the stored ones times 2^shift
}

// endRow moves the specials past a row whose E state summed to xE. If
// the mass has left the window, it rescales them and the target's
// cells of the row, row[lane], row[lane+lanes], ...
func (s *fwdSpecials) endRow(o *profile.Odds, xE float64, row []float64, lane, lanes int) {
	s.xJ = s.xJ*o.TLoop + xE*o.TEJ
	s.xC = s.xC*o.TLoop + xE*o.TEC
	s.xN *= o.TLoop
	s.xB = (s.xN + s.xJ) * o.TMove
	if mass := s.xN + s.xJ + s.xC + xE; mass > fwdHigh || (mass < fwdLow && mass > 0) {
		_, e := math.Frexp(mass)
		scale := math.Ldexp(1, -e)
		for i := lane; i < len(row); i += lanes {
			row[i] *= scale
		}
		s.xN, s.xB, s.xJ, s.xC = s.xN*scale, s.xB*scale, s.xJ*scale, s.xC*scale
		s.shift += e
	}
}

func (s *fwdSpecials) score(p *profile.Profile) float64 {
	return math.Log(s.xC) + p.TMove + float64(s.shift)*math.Ln2
}
