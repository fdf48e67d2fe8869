package refimpl

import (
	"fmt"
	"math"

	"hmmer3gpu/internal/profile"
)

// Posterior decoding: per-residue probability of being emitted by the
// core model (any match or insert state), from full Forward and
// Backward matrices — the basis of the Forward-Backward stage's domain
// identification. Memory is O(L*M); intended for surviving hits.

// Posterior holds the decoding result.
type Posterior struct {
	// Score is the Forward score (nats).
	Score float64
	// InModel[i] is P(residue i+1 emitted by a match/insert state).
	InModel []float64
	// MatchUsage[k] is the expected number of residues emitted by
	// match state k; InsertUsage the total over all insert states.
	// Together they define the null2 composition (see null2.go).
	MatchUsage  []float64
	InsertUsage float64
}

// Envelope is a maximal run of residues with high core occupancy: a
// domain's approximate extent on the target.
type Envelope struct {
	// From and To are 1-based inclusive target coordinates.
	From, To int
}

// PosteriorDecode runs full-matrix Forward and Backward and decodes
// the per-residue core occupancy.
func PosteriorDecode(p *profile.Profile, dsq []byte) (*Posterior, error) {
	m, L := p.M, len(dsq)
	if L == 0 {
		return nil, fmt.Errorf("refimpl: cannot decode an empty sequence")
	}
	idx := func(i, k int) int { return i*(m+1) + k }

	// Forward matrices.
	fM := make([]float64, (L+1)*(m+1))
	fI := make([]float64, (L+1)*(m+1))
	fD := make([]float64, (L+1)*(m+1))
	for i := range fM {
		fM[i], fI[i], fD[i] = profile.NegInf, profile.NegInf, profile.NegInf
	}
	fB := make([]float64, L+1)
	fJ := make([]float64, L+1)
	fC := make([]float64, L+1)
	fN := make([]float64, L+1)
	fN[0] = 0
	fB[0] = p.TMove
	for i := 1; i <= L; i++ {
		fJ[i], fC[i] = profile.NegInf, profile.NegInf
	}
	fJ[0], fC[0] = profile.NegInf, profile.NegInf

	for i := 1; i <= L; i++ {
		msc := p.MSC[dsq[i-1]]
		xE := profile.NegInf
		for k := 1; k <= m; k++ {
			mv := logSum(
				logSum(fM[idx(i-1, k-1)]+p.TMM[k-1], fI[idx(i-1, k-1)]+p.TIM[k-1]),
				logSum(fD[idx(i-1, k-1)]+p.TDM[k-1], fB[i-1]+p.TBM),
			) + msc[k]
			fM[idx(i, k)] = mv
			fI[idx(i, k)] = logSum(fM[idx(i-1, k)]+p.TMI[k], fI[idx(i-1, k)]+p.TII[k])
			fD[idx(i, k)] = logSum(fM[idx(i, k-1)]+p.TMD[k-1], fD[idx(i, k-1)]+p.TDD[k-1])
			xE = logSum(xE, mv)
		}
		xE = logSum(xE, fD[idx(i, m)])
		fJ[i] = logSum(fJ[i-1]+p.TLoop, xE+p.TEJ)
		fC[i] = logSum(fC[i-1]+p.TLoop, xE+p.TEC)
		fN[i] = fN[i-1] + p.TLoop
		fB[i] = logSum(fN[i], fJ[i]) + p.TMove
	}
	total := fC[L] + p.TMove

	// Backward matrices (bM[i][k] is the
	// probability of finishing from M_k after i residues are consumed).
	bM := make([]float64, (L+1)*(m+1))
	bI := make([]float64, (L+1)*(m+1))
	bD := make([]float64, (L+1)*(m+1))
	for i := range bM {
		bM[i], bI[i], bD[i] = profile.NegInf, profile.NegInf, profile.NegInf
	}
	bC := profile.NegInf
	bJ := profile.NegInf

	// Row L.
	bC = p.TMove
	xE := logSum(p.TEC+bC, p.TEJ+bJ)
	for k := m; k >= 1; k-- {
		if k == m {
			bD[idx(L, k)] = xE
			bM[idx(L, k)] = xE // M_M exits only through E
			continue
		}
		bD[idx(L, k)] = p.TDD[k] + bD[idx(L, k+1)]
		bM[idx(L, k)] = logSum(xE, p.TMD[k]+bD[idx(L, k+1)])
	}

	for i := L - 1; i >= 0; i-- {
		msc := p.MSC[dsq[i]]
		xB := profile.NegInf
		for k := 1; k <= m; k++ {
			xB = logSum(xB, p.TBM+msc[k]+bM[idx(i+1, k)])
		}
		bJ = logSum(p.TMove+xB, p.TLoop+bJ)
		bC = p.TLoop + bC
		xE = logSum(p.TEC+bC, p.TEJ+bJ)

		for k := m; k >= 1; k-- {
			if k == m {
				bD[idx(i, k)] = xE
				bM[idx(i, k)] = xE
				continue
			}
			bD[idx(i, k)] = logSum(
				p.TDM[k]+msc[k+1]+bM[idx(i+1, k+1)],
				p.TDD[k]+bD[idx(i, k+1)],
			)
			bI[idx(i, k)] = logSum(
				p.TIM[k]+msc[k+1]+bM[idx(i+1, k+1)],
				p.TII[k]+bI[idx(i+1, k)],
			)
			bM[idx(i, k)] = logSum(
				logSum(
					p.TMM[k]+msc[k+1]+bM[idx(i+1, k+1)],
					p.TMI[k]+bI[idx(i+1, k)],
				),
				logSum(p.TMD[k]+bD[idx(i, k+1)], xE),
			)
		}
	}

	po := &Posterior{
		Score:      total,
		InModel:    make([]float64, L),
		MatchUsage: make([]float64, m+1),
	}
	for i := 1; i <= L; i++ {
		var acc float64
		for k := 1; k <= m; k++ {
			pm := math.Exp(fM[idx(i, k)] + bM[idx(i, k)] - total)
			pi := math.Exp(fI[idx(i, k)] + bI[idx(i, k)] - total)
			po.MatchUsage[k] += pm
			po.InsertUsage += pi
			acc += pm + pi
		}
		if acc > 1 {
			// Tolerate floating point excess just above 1.
			if acc > 1+1e-6 {
				return nil, fmt.Errorf("refimpl: posterior %g > 1 at residue %d", acc, i)
			}
			acc = 1
		}
		po.InModel[i-1] = acc
	}
	return po, nil
}

// Envelopes returns the maximal runs of residues whose core occupancy
// is at least threshold.
func (po *Posterior) Envelopes(threshold float64) []Envelope {
	var out []Envelope
	start := -1
	for i, v := range po.InModel {
		if v >= threshold {
			if start < 0 {
				start = i + 1
			}
		} else if start > 0 {
			out = append(out, Envelope{From: start, To: i})
			start = -1
		}
	}
	if start > 0 {
		out = append(out, Envelope{From: start, To: len(po.InModel)})
	}
	return out
}
