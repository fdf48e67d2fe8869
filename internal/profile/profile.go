// Package profile turns a Plan7 core model into search profiles: the
// full-precision log-odds profile used by the reference and Forward
// implementations, and the quantised 8-bit MSV and 16-bit Viterbi
// filter profiles used by the accelerated engines.
//
// Configuration follows HMMER3's multihit local mode with two
// documented simplifications, both applied consistently across every
// engine in this repository so that cross-engine score comparisons are
// exact:
//
//   - local entry B->M_k is uniform, 2/(M(M+1)) (the MSV entry
//     distribution), rather than HMMER3's occupancy-weighted entry;
//   - insert emission log-odds are zero (HMMER3 does this too).
package profile

import (
	"math"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
)

// NegInf is the floor used for impossible transitions in float scores.
var NegInf = math.Inf(-1)

// Profile is the configured full-precision search profile. All scores
// are natural-log odds (nats).
type Profile struct {
	Name string
	M    int
	Abc  *alphabet.Alphabet

	// MSC[r][k] is the match emission log-odds for digital residue r at
	// node k (k = 1..M; index 0 unused). Degenerate residues are
	// marginalised; gap-like codes score NegInf.
	MSC [][]float64

	// Transition scores out of node k (k = 0..M; entries that do not
	// exist in the model are NegInf). TMM[k] is M_k -> M_{k+1}, etc.
	TMM, TMI, TMD, TIM, TII, TDM, TDD []float64

	// TBM is the uniform local entry score ln(2/(M(M+1))) for B -> M_k.
	TBM float64
	// TEC and TEJ are the E->C / E->J scores; ln(0.5) in multihit mode.
	TEC, TEJ float64

	// Length-model scores, set by SetLength: TLoop = ln(L/(L+3)) for
	// the N->N, C->C, J->J self loops; TMove = ln(3/(L+3)) for
	// N->B, J->B and C->T.
	TLoop, TMove float64
	// L is the configured target length.
	L int

	// Stats carries the calibration parameters from the source model.
	Stats hmm.CalibrationStats

	// Odds is every score above exponentiated once, for recurrences
	// that run in linear space. Config builds the tables and SetLength
	// sets its length model; nothing else may write to it.
	Odds Odds
}

// Odds holds a profile's scores as odds ratios, exp(score), with
// exp(NegInf) = 0: a sum over paths becomes multiply-adds instead of
// a log-sum-exp per term. The tables are read-only once built, so
// copies of a Profile may share them.
type Odds struct {
	// MSC[r][k] is exp(Profile.MSC[r][k]).
	MSC [][]float64
	// T[k] is the odds of the seven transitions out of node k.
	T []OddsNode

	TBM, TEC, TEJ float64
	// TLoop and TMove are set by SetLength.
	TLoop, TMove float64
}

// OddsNode is one node's transition odds, side by side because a DP
// cell reads them together. Field XY mirrors Profile.TXY[k].
type OddsNode struct {
	MM, IM, DM, MI, II, MD, DD float64
}

// newOdds exponentiates a profile's length-independent score tables.
func newOdds(p *Profile) Odds {
	m := p.M
	o := Odds{
		MSC: make([][]float64, len(p.MSC)),
		T:   make([]OddsNode, m+1),
		TBM: math.Exp(p.TBM),
		TEC: math.Exp(p.TEC),
		TEJ: math.Exp(p.TEJ),
	}
	flat := make([]float64, len(p.MSC)*(m+1))
	for r, row := range p.MSC {
		o.MSC[r] = flat[r*(m+1) : (r+1)*(m+1) : (r+1)*(m+1)]
		for k, sc := range row {
			o.MSC[r][k] = math.Exp(sc)
		}
	}
	for k := range o.T {
		o.T[k] = OddsNode{
			MM: math.Exp(p.TMM[k]), IM: math.Exp(p.TIM[k]), DM: math.Exp(p.TDM[k]),
			MI: math.Exp(p.TMI[k]), II: math.Exp(p.TII[k]),
			MD: math.Exp(p.TMD[k]), DD: math.Exp(p.TDD[k]),
		}
	}
	return o
}

// Config builds a multihit-local search profile from a validated core
// model. The profile still needs SetLength before scoring.
func Config(h *hmm.Plan7) *Profile {
	abc := h.Abc
	p := &Profile{
		Name:  h.Name,
		M:     h.M,
		Abc:   abc,
		Stats: h.Stats,
	}
	m := h.M
	bg := abc.Backgrounds()

	// Match emission log-odds, canonical then marginalised degenerates.
	p.MSC = make([][]float64, abc.SizeAll())
	canonical := make([][]float64, m+1)
	for k := 1; k <= m; k++ {
		canonical[k] = make([]float64, abc.Size())
		for r := 0; r < abc.Size(); r++ {
			if h.Mat[k][r] <= 0 {
				canonical[k][r] = NegInf
			} else {
				canonical[k][r] = math.Log(h.Mat[k][r] / bg[r])
			}
		}
	}
	scratch := make([]float64, abc.Size())
	for r := 0; r < abc.SizeAll(); r++ {
		p.MSC[r] = make([]float64, m+1)
		p.MSC[r][0] = NegInf
		for k := 1; k <= m; k++ {
			switch {
			case r < abc.Size():
				p.MSC[r][k] = canonical[k][r]
			case abc.IsDegenerate(byte(r)):
				copy(scratch, canonical[k])
				p.MSC[r][k] = abc.DegenerateScore(byte(r), scratch)
			default:
				p.MSC[r][k] = NegInf
			}
		}
	}

	// Transition scores.
	ln := func(x float64) float64 {
		if x <= 0 {
			return NegInf
		}
		return math.Log(x)
	}
	alloc := func() []float64 {
		s := make([]float64, m+1)
		for i := range s {
			s[i] = NegInf
		}
		return s
	}
	p.TMM, p.TMI, p.TMD = alloc(), alloc(), alloc()
	p.TIM, p.TII = alloc(), alloc()
	p.TDM, p.TDD = alloc(), alloc()
	for k := 1; k < m; k++ {
		p.TMM[k] = ln(h.T[k][hmm.TMM])
		p.TMI[k] = ln(h.T[k][hmm.TMI])
		p.TMD[k] = ln(h.T[k][hmm.TMD])
		p.TIM[k] = ln(h.T[k][hmm.TIM])
		p.TII[k] = ln(h.T[k][hmm.TII])
		p.TDM[k] = ln(h.T[k][hmm.TDM])
		p.TDD[k] = ln(h.T[k][hmm.TDD])
	}

	p.TBM = math.Log(2.0 / (float64(m) * float64(m+1)))
	p.TEC = math.Log(0.5)
	p.TEJ = math.Log(0.5)
	p.Odds = newOdds(p)
	return p
}

// SetLength configures the length model for a target of L residues.
func (p *Profile) SetLength(L int) {
	p.L = L
	fl := float64(L)
	p.TLoop = math.Log(fl / (fl + 3))
	p.TMove = math.Log(3 / (fl + 3))
	p.Odds.TLoop, p.Odds.TMove = fl/(fl+3), 3/(fl+3)
}

// MatchScore returns the match emission log-odds for residue code r at
// node k, tolerating out-of-range codes (returns NegInf).
func (p *Profile) MatchScore(r byte, k int) float64 {
	if int(r) >= len(p.MSC) || k < 1 || k > p.M {
		return NegInf
	}
	return p.MSC[r][k]
}
