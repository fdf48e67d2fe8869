// Package hmm implements the Plan7 profile hidden Markov model at the
// heart of HMMER3: the core probability model (match/insert emission
// distributions and the seven-class transition structure of Figure 3 in
// the paper), plus HMMER3 ASCII file input/output.
package hmm

import (
	"fmt"
	"math"

	"hmmer3gpu/internal/alphabet"
)

// Transition indices into Plan7.T[k]. Following HMMER's convention,
// T[k] holds the transitions out of node k: M_k->M_{k+1}, M_k->I_k,
// M_k->D_{k+1}, I_k->M_{k+1}, I_k->I_k, D_k->M_{k+1}, D_k->D_{k+1}.
// T[0] holds the begin transitions (B->M1 in TMM, B->D1 in TMD).
const (
	TMM = iota
	TMI
	TMD
	TIM
	TII
	TDM
	TDD
	// NTrans is the number of transition classes per node.
	NTrans
)

// Plan7 is the core Plan7 probability model of length M.
//
// Indexing: emission and transition rows are indexed 1..M for model
// nodes, with row 0 reserved (emissions unused; T[0] holds begin
// transitions). All values are probabilities, not scores.
type Plan7 struct {
	Name string
	Acc  string
	Desc string

	// M is the model length (number of match states).
	M int
	// Abc is the digital alphabet the model emits over.
	Abc *alphabet.Alphabet

	// Mat[k][r] is the match emission probability of canonical residue
	// r at node k (k = 1..M).
	Mat [][]float64
	// Ins[k][r] is the insert emission probability at node k (k = 1..M-1;
	// row M exists but is conventionally unused in Plan7).
	Ins [][]float64
	// T[k][c] are the transition probabilities out of node k (see the
	// transition-index constants).
	T [][]float64

	// Compo, if non-nil, is the model's average match-emission
	// composition (the HMMER3 COMPO line).
	Compo []float64

	// Stats holds score-distribution calibration parameters, when known.
	Stats CalibrationStats
}

// CalibrationStats records the statistical parameters of the three
// score distributions HMMER3 calibrates (STATS LOCAL lines): Gumbel
// location/slope for MSV and Viterbi, exponential tail for Forward.
type CalibrationStats struct {
	MSVMu     float64
	MSVLambda float64
	VitMu     float64
	VitLambda float64
	FwdTau    float64
	FwdLambda float64
	// Calibrated reports whether the fields above are meaningful.
	Calibrated bool
}

// New allocates a zeroed Plan7 model of length m over abc.
func New(m int, abc *alphabet.Alphabet) (*Plan7, error) {
	if m < 1 {
		return nil, fmt.Errorf("hmm: model length %d < 1", m)
	}
	h := &Plan7{M: m, Abc: abc}
	h.Mat = make([][]float64, m+1)
	h.Ins = make([][]float64, m+1)
	h.T = make([][]float64, m+1)
	for k := 0; k <= m; k++ {
		h.Mat[k] = make([]float64, abc.Size())
		h.Ins[k] = make([]float64, abc.Size())
		h.T[k] = make([]float64, NTrans)
	}
	return h, nil
}

// SetUniformInserts sets every insert emission distribution to the
// background (HMMER3's convention, which makes insert emission
// log-odds scores zero in the search profile).
func (h *Plan7) SetUniformInserts() {
	for k := 1; k <= h.M; k++ {
		copy(h.Ins[k], h.Abc.Backgrounds())
	}
}

// Validate checks that the model is a well-formed probability model:
// every emission row and transition group sums to ~1 where required.
func (h *Plan7) Validate() error {
	if h.M < 1 {
		return fmt.Errorf("hmm %s: length %d < 1", h.Name, h.M)
	}
	const tol = 1e-3
	sumOK := func(p []float64) bool {
		s := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			s += v
		}
		return math.Abs(s-1) <= tol
	}
	for k := 1; k <= h.M; k++ {
		if !sumOK(h.Mat[k]) {
			return fmt.Errorf("hmm %s: match emissions at node %d do not sum to 1", h.Name, k)
		}
		if k < h.M && !sumOK(h.Ins[k]) {
			return fmt.Errorf("hmm %s: insert emissions at node %d do not sum to 1", h.Name, k)
		}
	}
	// Transition groups: {MM,MI,MD}, {IM,II}, {DM,DD} out of each node.
	for k := 0; k <= h.M; k++ {
		m := []float64{h.T[k][TMM], h.T[k][TMI], h.T[k][TMD]}
		i := []float64{h.T[k][TIM], h.T[k][TII]}
		d := []float64{h.T[k][TDM], h.T[k][TDD]}
		switch k {
		case 0:
			// Begin node: B->{M1, D1}; insert group I0 unused here
			// (we require it zeroed or normalised).
			if !sumOK([]float64{h.T[0][TMM], h.T[0][TMD]}) {
				return fmt.Errorf("hmm %s: begin transitions do not sum to 1", h.Name)
			}
		case h.M:
			// Last node: M_M -> E is implicit (TMM row is M->E); HMMER
			// stores t[M] with MM=1-MI, MD=0, DM=1, DD=0.
			if !sumOK(m) || !sumOK(d) {
				return fmt.Errorf("hmm %s: node M transitions malformed", h.Name)
			}
		default:
			if !sumOK(m) {
				return fmt.Errorf("hmm %s: match transitions at node %d do not sum to 1", h.Name, k)
			}
			if !sumOK(i) {
				return fmt.Errorf("hmm %s: insert transitions at node %d do not sum to 1", h.Name, k)
			}
			if !sumOK(d) {
				return fmt.Errorf("hmm %s: delete transitions at node %d do not sum to 1", h.Name, k)
			}
		}
	}
	return nil
}

// Consensus returns the consensus sequence: the highest-probability
// match residue at each node.
func (h *Plan7) Consensus() []byte {
	out := make([]byte, h.M)
	for k := 1; k <= h.M; k++ {
		best, bestP := 0, -1.0
		for r, p := range h.Mat[k] {
			if p > bestP {
				best, bestP = r, p
			}
		}
		out[k-1] = byte(best)
	}
	return out
}

// MeanMatchEntropy returns the mean relative entropy (bits) of the
// match emission distributions versus the background — a standard
// measure of model information content.
func (h *Plan7) MeanMatchEntropy() float64 {
	bg := h.Abc.Backgrounds()
	total := 0.0
	for k := 1; k <= h.M; k++ {
		for r, p := range h.Mat[k] {
			if p > 0 {
				total += p * math.Log2(p/bg[r])
			}
		}
	}
	return total / float64(h.M)
}

// ComputeCompo fills Compo with the mean match emission distribution.
func (h *Plan7) ComputeCompo() {
	compo := make([]float64, h.Abc.Size())
	for k := 1; k <= h.M; k++ {
		for r, p := range h.Mat[k] {
			compo[r] += p
		}
	}
	for r := range compo {
		compo[r] /= float64(h.M)
	}
	h.Compo = compo
}
