package stats

import (
	"math/rand"
)

// Calibration by simulation, as in hmmsim/p7_Calibrate: score a set of
// i.i.d. random sequences with a filter, then fit the appropriate
// distribution with lambda fixed at log 2.

// CalibrateOptions controls the random-sequence simulation.
type CalibrateOptions struct {
	// N is the number of random sequences (HMMER uses 200).
	N int
	// L is their length (HMMER uses 100).
	L int
	// Seed makes calibration reproducible.
	Seed int64
	// TailMass anchors the Forward exponential fit (HMMER uses 0.04).
	TailMass float64
}

// DefaultCalibration returns HMMER3's calibration parameters.
func DefaultCalibration() CalibrateOptions {
	return CalibrateOptions{N: 200, L: 100, Seed: 42, TailMass: 0.04}
}

// Scorer scores one digital sequence, returning a bit score.
type Scorer func(dsq []byte) float64

// SampleSeqs draws the N background sequences of length L a fit with
// these options scores, over the canonical residues with the given
// frequencies. The draw depends on nothing but opts and bg, so a
// caller may score the sequences in any order, or in parallel, and fit
// the scores in index order to get what CalibrateGumbel and
// CalibrateExponential compute.
func SampleSeqs(opts CalibrateOptions, bg []float64) [][]byte {
	rng := rand.New(rand.NewSource(opts.Seed))
	flat := make([]byte, opts.N*opts.L)
	seqs := make([][]byte, opts.N)
	for i := range seqs {
		dsq := flat[i*opts.L : (i+1)*opts.L : (i+1)*opts.L]
		for j := range dsq {
			dsq[j] = DrawResidue(rng, bg)
		}
		seqs[i] = dsq
	}
	return seqs
}

// DrawResidue draws one residue code from the background frequencies
// bg by inverse CDF, consuming exactly one rng.Float64. A draw past the
// cumulative sum (rounding) yields the last code.
func DrawResidue(rng *rand.Rand, bg []float64) byte {
	u, acc := rng.Float64(), 0.0
	for r, f := range bg {
		acc += f
		if u < acc {
			return byte(r)
		}
	}
	return byte(len(bg) - 1)
}

func scoreAll(score Scorer, seqs [][]byte) []float64 {
	samples := make([]float64, len(seqs))
	for i, dsq := range seqs {
		samples[i] = score(dsq)
	}
	return samples
}

// CalibrateGumbel simulates random sequences, scores them, and fits a
// Gumbel with lambda = log 2 — used for the MSV and Viterbi filters.
func CalibrateGumbel(score Scorer, bg []float64, opts CalibrateOptions) (Gumbel, error) {
	return FitGumbelFixedLambda(scoreAll(score, SampleSeqs(opts, bg)), Lambda)
}

// CalibrateExponential simulates random sequences, scores them, and
// anchors the exponential tail — used for Forward scores.
func CalibrateExponential(score Scorer, bg []float64, opts CalibrateOptions) (Exponential, error) {
	return FitExpTailFixedLambda(scoreAll(score, SampleSeqs(opts, bg)), Lambda, opts.TailMass)
}
