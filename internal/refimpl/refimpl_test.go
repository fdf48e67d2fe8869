package refimpl

import (
	"math"
	"math/rand"
	"testing"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/profile"
)

var abc = alphabet.New()

func randomSeq(rng *rand.Rand, n int) []byte {
	bg := abc.Backgrounds()
	out := make([]byte, n)
	for i := range out {
		u, acc := rng.Float64(), 0.0
		out[i] = byte(len(bg) - 1)
		for r, f := range bg {
			acc += f
			if u < acc {
				out[i] = byte(r)
				break
			}
		}
	}
	return out
}

func testProfile(t testing.TB, m int, seed int64) *profile.Profile {
	t.Helper()
	h, err := hmm.Random("ref", m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return profile.Config(h)
}

func TestScoresFiniteOnRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := testProfile(t, 40, 1)
	for _, L := range []int{1, 5, 40, 200} {
		dsq := randomSeq(rng, L)
		p.SetLength(L)
		for name, f := range map[string]func(*profile.Profile, []byte) float64{
			"MSV": MSV, "Viterbi": Viterbi, "Forward": Forward, "Backward": Backward,
		} {
			sc := f(p, dsq)
			if math.IsInf(sc, 0) || math.IsNaN(sc) {
				t.Errorf("%s score for L=%d is %v", name, L, sc)
			}
		}
	}
}

func TestViterbiNeverExceedsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		m := 5 + rng.Intn(60)
		p := testProfile(t, m, int64(trial))
		L := 10 + rng.Intn(300)
		dsq := randomSeq(rng, L)
		p.SetLength(L)
		v, f := Viterbi(p, dsq), Forward(p, dsq)
		if v > f+1e-9 {
			t.Errorf("trial %d (M=%d, L=%d): Viterbi %g > Forward %g", trial, m, L, v, f)
		}
	}
}

func TestForwardEqualsBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		m := 3 + rng.Intn(50)
		L := 3 + rng.Intn(250)
		p := testProfile(t, m, int64(100+trial))
		dsq := randomSeq(rng, L)
		p.SetLength(L)
		fwd, bwd := Forward(p, dsq), Backward(p, dsq)
		if math.Abs(fwd-bwd) > 1e-6*(1+math.Abs(fwd)) {
			t.Errorf("trial %d (M=%d, L=%d): Forward %.9f != Backward %.9f", trial, m, L, fwd, bwd)
		}
	}
}

func TestMSVEqualsViterbiOnUngappedModel(t *testing.T) {
	// With gap opening impossible, the Plan7 Viterbi model degenerates
	// to the MSV model up to the M->M transition costs, which become
	// ln(1) = 0 — so the two scores must coincide exactly.
	rng := rand.New(rand.NewSource(4))
	cons := randomSeq(rng, 30)
	h, err := hmm.FromConsensus("ungapped", cons, abc,
		hmm.BuildParams{MatchIdentity: 0.7, GapOpen: 0, GapExtend: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	for trial := 0; trial < 10; trial++ {
		L := 20 + rng.Intn(200)
		dsq := randomSeq(rng, L)
		p.SetLength(L)
		msv, vit := MSV(p, dsq), Viterbi(p, dsq)
		if math.Abs(msv-vit) > 1e-9 {
			t.Errorf("trial %d: MSV %g != Viterbi %g on ungapped model", trial, msv, vit)
		}
	}
}

func TestHomologScoresAboveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h, err := hmm.Random("homolog", 80, abc, hmm.DefaultBuildParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)

	homolog := h.SampleSequence(rng)
	random := randomSeq(rng, len(homolog))
	p.SetLength(len(homolog))
	hm, hv, hf := MSV(p, homolog), Viterbi(p, homolog), Forward(p, homolog)
	rm, rv, rf := MSV(p, random), Viterbi(p, random), Forward(p, random)
	if hm < rm+5 || hv < rv+5 || hf < rf+5 {
		t.Errorf("homolog should dominate: MSV %g vs %g, Vit %g vs %g, Fwd %g vs %g",
			hm, rm, hv, rv, hf, rf)
	}
}

func TestScoresDependOnLengthModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := testProfile(t, 25, 6)
	dsq := randomSeq(rng, 100)
	p.SetLength(100)
	a := Viterbi(p, dsq)
	p.SetLength(5000)
	b := Viterbi(p, dsq)
	if a == b {
		t.Error("Viterbi score should change with the length model")
	}
}

func TestSingleResidueSequence(t *testing.T) {
	p := testProfile(t, 10, 7)
	p.SetLength(1)
	dsq := []byte{3}
	v, f := Viterbi(p, dsq), Forward(p, dsq)
	if math.IsNaN(v) || math.IsNaN(f) || v > f+1e-9 {
		t.Errorf("L=1: Viterbi %g Forward %g", v, f)
	}
	b := Backward(p, dsq)
	if math.Abs(f-b) > 1e-9*(1+math.Abs(f)) {
		t.Errorf("L=1: Forward %g != Backward %g", f, b)
	}
}

func TestModelLengthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := testProfile(t, 1, 8)
	dsq := randomSeq(rng, 50)
	p.SetLength(50)
	v, f, b := Viterbi(p, dsq), Forward(p, dsq), Backward(p, dsq)
	if math.IsNaN(v) || math.IsNaN(f) {
		t.Fatalf("M=1: Viterbi %g Forward %g", v, f)
	}
	if v > f+1e-9 {
		t.Errorf("M=1: Viterbi %g > Forward %g", v, f)
	}
	if math.Abs(f-b) > 1e-6*(1+math.Abs(f)) {
		t.Errorf("M=1: Forward %g != Backward %g", f, b)
	}
}

func TestLogSum(t *testing.T) {
	cases := []struct{ a, b float64 }{
		{0, 0}, {1, 2}, {-700, -700}, {100, -100},
		{profile.NegInf, 3}, {3, profile.NegInf}, {profile.NegInf, profile.NegInf},
	}
	for _, c := range cases {
		got := logSum(c.a, c.b)
		var want float64
		if math.IsInf(c.a, -1) && math.IsInf(c.b, -1) {
			want = profile.NegInf
		} else {
			want = math.Log(math.Exp(c.a) + math.Exp(c.b))
			if math.IsInf(want, 1) { // direct form overflowed, trust identity
				want = math.Max(c.a, c.b) + math.Log1p(math.Exp(-math.Abs(c.a-c.b)))
			}
		}
		if math.IsInf(want, -1) {
			if !math.IsInf(got, -1) {
				t.Errorf("logSum(%g,%g) = %g, want -inf", c.a, c.b, got)
			}
			continue
		}
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Errorf("logSum(%g,%g) = %g, want %g", c.a, c.b, got, want)
		}
	}
}

// Backward computes the full-precision Backward score (nats). For a
// correct implementation Backward(dsq) == Forward(dsq) up to floating
// point error, which makes it the oracle for Forward in these tests.
func Backward(p *profile.Profile, dsq []byte) float64 {
	m := p.M
	L := len(dsq)
	type row struct{ mx, ix, dx []float64 }
	newRow := func() row {
		r := row{
			mx: make([]float64, m+2),
			ix: make([]float64, m+2),
			dx: make([]float64, m+2),
		}
		for k := range r.mx {
			r.mx[k], r.ix[k], r.dx[k] = profile.NegInf, profile.NegInf, profile.NegInf
		}
		return r
	}
	next, cur := newRow(), newRow()

	// Special states at position i, computed backwards. At i = L:
	xC := p.TMove // C -> T
	xJ := profile.NegInf
	xB := profile.NegInf
	xE := logSum(p.TEC+xC, p.TEJ+xJ)
	xN := logSum(p.TMove+xB, profile.NegInf)

	// Row L: no residues remain, so match states can only exit locally
	// through E, possibly after deleting through to D_M.
	for k := m; k >= 1; k-- {
		if k == m {
			cur.dx[k] = xE // D_M -> E
		} else {
			cur.dx[k] = p.TDD[k] + cur.dx[k+1]
		}
		cur.mx[k] = logSum(xE, p.TMD[k]+cur.dx[k+1])
		cur.ix[k] = profile.NegInf
	}

	for i := L - 1; i >= 0; i-- {
		// Entering M_k at DP row i+1 emits dsq[i] (0-based), so every
		// transition from row i into a next-row match state carries the
		// msc term over dsq[i].
		msc := p.MSC[dsq[i]]
		next, cur = cur, next

		// Specials at position i (order matters: B before J/N, E last).
		xB = profile.NegInf
		for k := 1; k <= m; k++ {
			xB = logSum(xB, p.TBM+msc[k]+next.mx[k])
		}
		xJ = logSum(p.TMove+xB, p.TLoop+xJ)
		// C can only reach T once every residue is emitted, so before
		// time L its only outgoing option is the emitting self-loop.
		xC = p.TLoop + xC
		xE = logSum(p.TEC+xC, p.TEJ+xJ)
		xN = logSum(p.TMove+xB, p.TLoop+xN)

		for k := m; k >= 1; k-- {
			if k == m {
				// M_M and D_M can only exit through E.
				cur.dx[k] = xE
				cur.mx[k] = xE
				cur.ix[k] = profile.NegInf
				continue
			}
			cur.dx[k] = logSum(
				p.TDM[k]+msc[k+1]+next.mx[k+1],
				p.TDD[k]+cur.dx[k+1],
			)
			cur.ix[k] = logSum(
				p.TIM[k]+msc[k+1]+next.mx[k+1],
				p.TII[k]+next.ix[k],
			)
			cur.mx[k] = logSum(
				logSum(
					p.TMM[k]+msc[k+1]+next.mx[k+1],
					p.TMI[k]+next.ix[k],
				),
				logSum(p.TMD[k]+cur.dx[k+1], xE),
			)
		}
	}
	return xN
}
