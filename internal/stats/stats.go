// Package stats implements the score statistics of HMMER 3.0: Gumbel
// (type I extreme value) distributions for the optimal-alignment MSV
// and Viterbi scores, and the exponential high-scoring tail of the
// Forward total-log-likelihood scores — both with slope parameter
// lambda = log 2 when scores are expressed in bits, the conjecture the
// pipeline's filter design rests on (§I of the paper: the high-scoring
// tails of Viterbi and Forward scores agree, which is what allows
// Viterbi-style filters to pre-screen for the Forward stage).
//
// All distributions here operate on BIT scores (nats / ln 2), matching
// the convention of HMMER3 save-file STATS lines.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Lambda is the canonical slope parameter for bit scores.
var Lambda = math.Ln2

// Gumbel is a type I extreme value distribution.
type Gumbel struct {
	Mu     float64
	Lambda float64
}

// Surv returns P(S > x), the P-value of score x.
func (g Gumbel) Surv(x float64) float64 {
	y := g.Lambda * (x - g.Mu)
	// 1 - exp(-exp(-y)), guarded for numerical stability.
	ey := math.Exp(-y)
	if ey < 1e-8 {
		return ey // 1-exp(-t) ~ t for small t
	}
	return 1 - math.Exp(-ey)
}

// CDF returns P(S <= x).
func (g Gumbel) CDF(x float64) float64 {
	return math.Exp(-math.Exp(-g.Lambda * (x - g.Mu)))
}

// Sample draws one variate.
func (g Gumbel) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return g.Mu - math.Log(-math.Log(u))/g.Lambda
}

// ScoreForP inverts Surv: the score with P-value p.
func (g Gumbel) ScoreForP(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	return g.Mu - math.Log(-math.Log(1-p))/g.Lambda
}

// FitGumbelFixedLambda estimates mu by maximum likelihood with lambda
// known (HMMER's calibration procedure: lambda is fixed at log 2 and
// only the location is fitted).
func FitGumbelFixedLambda(samples []float64, lambda float64) (Gumbel, error) {
	if len(samples) == 0 {
		return Gumbel{}, fmt.Errorf("stats: no samples to fit")
	}
	// ML with known lambda: mu = -(1/lambda) * ln( mean(exp(-lambda x)) ).
	// Shift by the max for numerical stability.
	maxS := samples[0]
	for _, s := range samples {
		if s > maxS {
			maxS = s
		}
	}
	var acc float64
	for _, s := range samples {
		acc += math.Exp(-lambda * (s - maxS))
	}
	acc /= float64(len(samples))
	mu := maxS - math.Log(acc)/lambda
	return Gumbel{Mu: mu, Lambda: lambda}, nil
}

// Exponential models the high-scoring tail of Forward scores:
// P(S > x) = exp(-lambda (x - tau)) for x >= tau, 1 otherwise.
type Exponential struct {
	Tau    float64
	Lambda float64
}

// Surv returns P(S > x).
func (e Exponential) Surv(x float64) float64 {
	if x <= e.Tau {
		return 1
	}
	return math.Exp(-e.Lambda * (x - e.Tau))
}

// ScoreForP inverts Surv for p in (0, 1].
func (e Exponential) ScoreForP(p float64) float64 {
	if p <= 0 || p > 1 {
		return math.NaN()
	}
	return e.Tau - math.Log(p)/e.Lambda
}

// FitExpTailFixedLambda anchors the exponential at the (1-tailMass)
// quantile of the samples: tau is set so that Surv matches tailMass at
// that point, mirroring HMMER's Forward-tau calibration.
func FitExpTailFixedLambda(samples []float64, lambda, tailMass float64) (Exponential, error) {
	if len(samples) == 0 {
		return Exponential{}, fmt.Errorf("stats: no samples to fit")
	}
	if tailMass <= 0 || tailMass >= 1 {
		return Exponential{}, fmt.Errorf("stats: tail mass %g out of (0,1)", tailMass)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(float64(len(sorted))*(1-tailMass))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	q := sorted[idx] // approx (1-tailMass)-quantile
	// Surv(q) = tailMass  =>  tau = q + ln(tailMass)/lambda.
	return Exponential{Tau: q + math.Log(tailMass)/lambda, Lambda: lambda}, nil
}

// BitsFromNats converts a natural-log score to bits.
func BitsFromNats(nats float64) float64 { return nats / math.Ln2 }

// EValue converts a P-value to an E-value over n independent trials
// (database sequences).
func EValue(pvalue float64, n int) float64 { return pvalue * float64(n) }
