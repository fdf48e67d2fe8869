// Package msa implements multiple sequence alignments and profile-HMM
// construction from them (the hmmbuild substrate): aligned-FASTA
// input, consensus-column marking, weighted emission/transition
// counting with Laplace priors, and conversion to a Plan7 model.
package msa

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
)

// MSA is a multiple sequence alignment in digital form. All rows have
// equal length; gap positions carry alphabet.CodeGap.
type MSA struct {
	Name string
	// Names holds one identifier per row.
	Names []string
	// Rows[i][c] is the digital code at row i, column c.
	Rows [][]byte
	// Cols is the alignment length.
	Cols int
}

// NumSeqs returns the number of aligned sequences.
func (m *MSA) NumSeqs() int { return len(m.Rows) }

// Read parses an aligned-FASTA alignment: same format as FASTA, but
// rows may contain gap symbols ('-' or '.') and must share one length.
func Read(r io.Reader, abc *alphabet.Alphabet) (*MSA, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	msa := &MSA{}
	var cur []byte
	var curName string
	line := 0
	flush := func() error {
		if curName == "" {
			return nil
		}
		if msa.Cols == 0 {
			msa.Cols = len(cur)
		} else if len(cur) != msa.Cols {
			return fmt.Errorf("msa: row %q has %d columns, want %d", curName, len(cur), msa.Cols)
		}
		if len(cur) == 0 {
			return fmt.Errorf("msa: row %q is empty", curName)
		}
		msa.Names = append(msa.Names, curName)
		msa.Rows = append(msa.Rows, cur)
		cur, curName = nil, ""
		return nil
	}
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if text[0] == '>' {
			if err := flush(); err != nil {
				return nil, err
			}
			fields := bytes.Fields(text[1:])
			if len(fields) == 0 {
				return nil, fmt.Errorf("msa: line %d: empty row name", line)
			}
			curName = string(fields[0])
			continue
		}
		if curName == "" {
			return nil, fmt.Errorf("msa: line %d: data before first header", line)
		}
		var err error
		if cur, err = abc.Digitize(cur, text); err != nil {
			return nil, fmt.Errorf("msa: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if msa.NumSeqs() == 0 {
		return nil, fmt.Errorf("msa: no rows found")
	}
	return msa, nil
}

// BuildOptions controls model construction.
type BuildOptions struct {
	// ConsensusFraction marks a column as a consensus (match) column
	// when at least this fraction of rows hold a residue there
	// (HMMER's rule-of-thumb default is 0.5).
	ConsensusFraction float64
	// EmissionPrior is the Laplace pseudocount added to each residue's
	// emission count.
	EmissionPrior float64
	// TransitionPrior is the pseudocount added to each transition.
	TransitionPrior float64
	// NoWeights disables Henikoff position-based sequence weighting
	// (enabled by default, as in hmmbuild).
	NoWeights bool
}

// DefaultBuildOptions returns standard construction parameters.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		ConsensusFraction: 0.5,
		EmissionPrior:     0.1,
		TransitionPrior:   0.1,
	}
}

// Build constructs a Plan7 model from the alignment: consensus columns
// become match states; residues in non-consensus columns count as
// insertions; gaps in consensus columns count as deletions. Degenerate
// residues distribute their count over their expansion weighted by the
// background.
func Build(name string, m *MSA, abc *alphabet.Alphabet, opts BuildOptions) (*hmm.Plan7, error) {
	if opts.ConsensusFraction <= 0 || opts.ConsensusFraction > 1 {
		return nil, fmt.Errorf("msa: consensus fraction %g out of (0,1]", opts.ConsensusFraction)
	}
	if opts.EmissionPrior <= 0 || opts.TransitionPrior <= 0 {
		return nil, fmt.Errorf("msa: priors must be positive")
	}

	// Mark consensus columns.
	isMatch := make([]bool, m.Cols)
	nMatch := 0
	for c := 0; c < m.Cols; c++ {
		residues := 0
		for _, row := range m.Rows {
			if abc.IsResidue(row[c]) {
				residues++
			}
		}
		if float64(residues) >= opts.ConsensusFraction*float64(m.NumSeqs()) {
			isMatch[c] = true
			nMatch++
		}
	}
	if nMatch == 0 {
		return nil, fmt.Errorf("msa: no consensus columns at fraction %g", opts.ConsensusFraction)
	}

	h, err := hmm.New(nMatch, abc)
	if err != nil {
		return nil, err
	}
	h.Name = name

	// Count emissions and transitions along each row's implied path
	// through the model.
	K := abc.Size()
	matCount := make([][]float64, nMatch+1)
	insCount := make([][]float64, nMatch+1)
	traCount := make([][]float64, nMatch+1)
	for k := 0; k <= nMatch; k++ {
		matCount[k] = make([]float64, K)
		insCount[k] = make([]float64, K)
		traCount[k] = make([]float64, hmm.NTrans)
	}
	addEmission := func(counts []float64, code byte, wgt float64) {
		exp := abc.Expand(code)
		if len(exp) == 1 {
			counts[exp[0]] += wgt
			return
		}
		var den float64
		for _, r := range exp {
			den += abc.Background(r)
		}
		for _, r := range exp {
			counts[r] += wgt * abc.Background(r) / den
		}
	}

	weights := make([]float64, m.NumSeqs())
	for i := range weights {
		weights[i] = 1
	}
	if !opts.NoWeights {
		weights = HenikoffWeights(m, abc)
	}

	for ri, row := range m.Rows {
		wgt := weights[ri]
		prev := stM // virtual begin node (k=0 acts as M0)
		k := 0
		for c := 0; c < m.Cols; c++ {
			code := row[c]
			hasRes := abc.IsResidue(code)
			if isMatch[c] {
				k++
				var curState state
				if hasRes {
					curState = stM
					addEmission(matCount[k], code, wgt)
				} else {
					curState = stD
				}
				countTransition(traCount, k-1, prev, curState, wgt)
				prev = curState
			} else if hasRes {
				// Insert at node k.
				if prev != stI {
					countTransition(traCount, k, prev, stI, wgt)
				} else {
					traCount[k][hmm.TII] += wgt
				}
				addEmission(insCount[k], code, wgt)
				prev = stI
			}
		}
		// Final transition into the implicit end (counted as M->M out
		// of the last node so normalisation closes).
		countTransition(traCount, nMatch, prev, stM, wgt)
	}

	// Normalise with priors.
	bg := abc.Backgrounds()
	for k := 1; k <= nMatch; k++ {
		total := 0.0
		for r := 0; r < K; r++ {
			matCount[k][r] += opts.EmissionPrior * bg[r] * float64(K)
			total += matCount[k][r]
		}
		for r := 0; r < K; r++ {
			h.Mat[k][r] = matCount[k][r] / total
		}
	}
	h.SetUniformInserts()
	for k := 0; k <= nMatch; k++ {
		normalizeGroup(h.T[k], traCount[k], opts.TransitionPrior,
			[]int{hmm.TMM, hmm.TMI, hmm.TMD})
		normalizeGroup(h.T[k], traCount[k], opts.TransitionPrior,
			[]int{hmm.TIM, hmm.TII})
		normalizeGroup(h.T[k], traCount[k], opts.TransitionPrior,
			[]int{hmm.TDM, hmm.TDD})
	}
	// Boundary conventions (see hmm.Plan7.Validate).
	h.T[0][hmm.TMI] = 0
	reweight2(h.T[0], hmm.TMM, hmm.TMD)
	h.T[nMatch][hmm.TMI], h.T[nMatch][hmm.TMD] = 0, 0
	h.T[nMatch][hmm.TMM] = 1
	h.T[nMatch][hmm.TIM], h.T[nMatch][hmm.TII] = 1, 0
	h.T[nMatch][hmm.TDM], h.T[nMatch][hmm.TDD] = 1, 0

	h.ComputeCompo()
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("msa: built model invalid: %w", err)
	}
	return h, nil
}

// state is a row's current Plan7 state class while threading the
// alignment through the model.
type state int

const (
	stM state = iota
	stI
	stD
)

// countTransition records a transition from state `from` at node k
// into the next node's state `to`, with the row's sequence weight.
func countTransition(tra [][]float64, k int, from, to state, wgt float64) {
	var idx int
	switch from {
	case stM:
		switch to {
		case stM:
			idx = hmm.TMM
		case stI:
			idx = hmm.TMI
		default:
			idx = hmm.TMD
		}
	case stI:
		switch to {
		case stM:
			idx = hmm.TIM
		case stI:
			idx = hmm.TII
		default:
			// I->D is not part of Plan7; count it as I->M (HMMER's
			// condensation of non-Plan7 paths).
			idx = hmm.TIM
		}
	default: // stD
		switch to {
		case stM:
			idx = hmm.TDM
		case stD:
			idx = hmm.TDD
		default:
			// D->I likewise condenses to D->M.
			idx = hmm.TDM
		}
	}
	tra[k][idx] += wgt
}

// normalizeGroup converts counts to probabilities over one transition
// group with Laplace priors.
func normalizeGroup(dst []float64, counts []float64, prior float64, idx []int) {
	total := 0.0
	for _, i := range idx {
		total += counts[i] + prior
	}
	for _, i := range idx {
		dst[i] = (counts[i] + prior) / total
	}
}

// reweight2 renormalises two entries to sum to 1.
func reweight2(t []float64, a, b int) {
	s := t[a] + t[b]
	if s <= 0 {
		t[a], t[b] = 1, 0
		return
	}
	t[a], t[b] = t[a]/s, t[b]/s
}
