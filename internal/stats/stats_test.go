package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestGumbelSurvCDFComplement(t *testing.T) {
	g := Gumbel{Mu: -8.5, Lambda: Lambda}
	f := func(raw int16) bool {
		x := float64(raw) / 100
		s, c := g.Surv(x), g.CDF(x)
		return math.Abs(s+c-1) < 1e-7 && s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGumbelSurvMonotone(t *testing.T) {
	g := Gumbel{Mu: 0, Lambda: Lambda}
	prev := 1.1
	for x := -10.0; x < 40; x += 0.5 {
		s := g.Surv(x)
		if s > prev {
			t.Fatalf("Surv not monotone at %g: %g > %g", x, s, prev)
		}
		prev = s
	}
}

func TestGumbelHighTailStability(t *testing.T) {
	// Far tail must not underflow to 0 abruptly or go negative.
	g := Gumbel{Mu: 0, Lambda: Lambda}
	s := g.Surv(50)
	want := math.Exp(-Lambda * 50)
	if math.Abs(s-want)/want > 1e-6 {
		t.Errorf("far-tail Surv(50) = %g, want ~%g", s, want)
	}
}

func TestGumbelScoreForPInverts(t *testing.T) {
	g := Gumbel{Mu: -5, Lambda: Lambda}
	for _, p := range []float64{0.5, 0.1, 0.02, 1e-3} {
		x := g.ScoreForP(p)
		if got := g.Surv(x); math.Abs(got-p)/p > 1e-6 {
			t.Errorf("Surv(ScoreForP(%g)) = %g", p, got)
		}
	}
	if !math.IsNaN(g.ScoreForP(0)) || !math.IsNaN(g.ScoreForP(1)) {
		t.Error("ScoreForP should reject boundary P-values")
	}
}

func TestFitGumbelRecoversMu(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := Gumbel{Mu: -7.3, Lambda: Lambda}
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = truth.Sample(rng)
	}
	fit, err := FitGumbelFixedLambda(samples, Lambda)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-truth.Mu) > 0.1 {
		t.Errorf("fitted mu %g, want %g", fit.Mu, truth.Mu)
	}
}

func TestFitGumbelEmpty(t *testing.T) {
	if _, err := FitGumbelFixedLambda(nil, Lambda); err == nil {
		t.Error("empty fit accepted")
	}
}

func TestExponentialSurv(t *testing.T) {
	e := Exponential{Tau: -2, Lambda: Lambda}
	if e.Surv(-5) != 1 {
		t.Error("below tau should be 1")
	}
	if got := e.Surv(-2 + 1/Lambda); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("Surv = %g", got)
	}
	for _, p := range []float64{1, 0.5, 1e-4} {
		x := e.ScoreForP(p)
		if got := e.Surv(x); math.Abs(got-p)/p > 1e-9 {
			t.Errorf("exp ScoreForP(%g) inversion: %g", p, got)
		}
	}
}

func TestFitExpTailAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Exponential samples above tau=-3.
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = -3 - math.Log(1-rng.Float64())/Lambda
	}
	fit, err := FitExpTailFixedLambda(samples, Lambda, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Tau-(-3)) > 0.15 {
		t.Errorf("fitted tau %g, want -3", fit.Tau)
	}
	// Tail P-values should be accurate.
	sort.Float64s(samples)
	q99 := samples[int(0.99*float64(len(samples)))]
	if got := fit.Surv(q99); got < 0.005 || got > 0.02 {
		t.Errorf("Surv at empirical 99%% quantile = %g, want ~0.01", got)
	}
	if _, err := FitExpTailFixedLambda(samples, Lambda, 1.5); err == nil {
		t.Error("bad tail mass accepted")
	}
}

func TestCalibrationPValueUniformity(t *testing.T) {
	// Scores drawn from a Gumbel, calibrated, then fresh scores'
	// P-values must be ~Uniform(0,1): the property that makes filter
	// thresholds meaningful.
	rng := rand.New(rand.NewSource(3))
	truth := Gumbel{Mu: -6, Lambda: Lambda}
	score := func(dsq []byte) float64 { return truth.Sample(rng) }
	bg := []float64{0.25, 0.25, 0.25, 0.25}
	fit, err := CalibrateGumbel(score, bg, CalibrateOptions{N: 2000, L: 10, Seed: 4, TailMass: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	n := 2000
	count02 := 0
	for i := 0; i < n; i++ {
		p := fit.Surv(truth.Sample(rng))
		if p < 0.02 {
			count02++
		}
	}
	frac := float64(count02) / float64(n)
	if frac < 0.01 || frac > 0.035 {
		t.Errorf("P<0.02 fraction = %.4f, want ~0.02", frac)
	}
}

func TestSampleSeqsRespectsBackground(t *testing.T) {
	bg := []float64{0.7, 0.2, 0.1}
	counts := make([]int, 3)
	total := 0
	for _, dsq := range SampleSeqs(CalibrateOptions{N: 200, L: 100, Seed: 5}, bg) {
		for _, c := range dsq {
			counts[c]++
			total++
		}
	}
	for r, want := range bg {
		got := float64(counts[r]) / float64(total)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("residue %d frequency %.3f, want %.3f", r, got, want)
		}
	}
}

func TestEValue(t *testing.T) {
	if EValue(1e-3, 1000) != 1.0 {
		t.Error("EValue arithmetic")
	}
}

func TestBitsFromNats(t *testing.T) {
	if math.Abs(BitsFromNats(math.Ln2)-1) > 1e-15 {
		t.Error("BitsFromNats")
	}
}
