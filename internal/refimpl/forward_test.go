package refimpl

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/profile"
)

// forwardLogSpace is the Forward recurrence in log space, one logSum
// per term: the formulation Forward used before it moved to odds
// ratios, kept as the oracle. With the still-log-space Backward it
// checks the production Forward from two independent directions.
func forwardLogSpace(p *profile.Profile, dsq []byte) float64 {
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
			mv := logSum(
				logSum(prev.mx[k-1]+p.TMM[k-1], prev.ix[k-1]+p.TIM[k-1]),
				logSum(prev.dx[k-1]+p.TDM[k-1], xB+p.TBM),
			) + msc[k]
			cur.mx[k] = mv
			cur.ix[k] = logSum(prev.mx[k]+p.TMI[k], prev.ix[k]+p.TII[k])
			cur.dx[k] = logSum(cur.mx[k-1]+p.TMD[k-1], cur.dx[k-1]+p.TDD[k-1])
			xE = logSum(xE, mv)
		}
		xE = logSum(xE, cur.dx[m])
		xJ = logSum(xJ+p.TLoop, xE+p.TEJ)
		xC = logSum(xC+p.TLoop, xE+p.TEC)
		xN += p.TLoop
		xB = logSum(xN, xJ) + p.TMove
		prev, cur = cur, prev
	}
	return xC + p.TMove
}

// checkAgainstOracle holds Forward to the log-space oracle: within
// 1e-9 nats plus 1e-12 of the score, -Inf exactly where the oracle
// says -Inf, never NaN or +Inf. It returns the score.
func checkAgainstOracle(t testing.TB, what string, p *profile.Profile, dsq []byte) float64 {
	t.Helper()
	got, want := Forward(p, dsq), forwardLogSpace(p, dsq)
	switch {
	case math.IsNaN(got) || math.IsInf(got, 1):
		t.Errorf("%s: Forward = %v", what, got)
	case math.IsInf(want, -1) != math.IsInf(got, -1):
		t.Errorf("%s: Forward = %v, oracle = %v", what, got, want)
	case math.Abs(got-want) > 1e-9+1e-12*math.Abs(want):
		t.Errorf("%s: Forward = %.12f, oracle = %.12f (diff %.3g)", what, got, want, got-want)
	}
	return got
}

// withDegenerates overwrites every step-th residue with a degenerate
// code (B, J, Z, O, U, X in turn).
func withDegenerates(dsq []byte, step int) []byte {
	out := append([]byte(nil), dsq...)
	for i, c := 0, byte(alphabet.K); i < len(out); i += step {
		out[i] = c
		if c++; c == alphabet.CodeGap {
			c = alphabet.K
		}
	}
	return out
}

func TestForwardMatchesLogSpaceOracle(t *testing.T) {
	// L is the configured target length; it shrinks as M grows so that
	// the oracle's 100·L target stays near two million cells.
	for _, c := range []struct{ m, L int }{
		{1, 300}, {2, 300}, {48, 300}, {100, 200}, {400, 50}, {1056, 20},
	} {
		c := c
		t.Run(fmt.Sprintf("M=%d", c.m), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(c.m)))
			h, err := hmm.Random("oracle", c.m, abc, hmm.DefaultBuildParams(), rng)
			if err != nil {
				t.Fatal(err)
			}
			p := profile.Config(h)
			p.SetLength(c.L)

			for _, n := range []int{0, 1, c.L, 100 * c.L} {
				checkAgainstOracle(t, fmt.Sprintf("random len %d", n), p, randomSeq(rng, n))
			}
			checkAgainstOracle(t, "degenerate residues", p, withDegenerates(randomSeq(rng, c.L), 3))
			checkAgainstOracle(t, "planted homolog", p,
				slices.Concat(randomSeq(rng, c.L/2), h.SampleSequence(rng), randomSeq(rng, c.L/2)))

			if c.m >= 48 { // a one- or two-node domain cannot add up to 1000 bits
				var tandem []byte
				for d := 0; d < 3+2500/c.m; d++ {
					tandem = slices.Concat(tandem, h.SampleSequence(rng), randomSeq(rng, 5))
				}
				// Past 2^1024 the unscaled row is +Inf.
				if sc := checkAgainstOracle(t, "tandem domains", p, tandem); sc/math.Ln2 < 1100 {
					t.Errorf("tandem target scored %.0f bits: too low to have forced the upward rescale", sc/math.Ln2)
				}
			}

			// Configured for length 3, every path halves per residue; a
			// few thousand residues on, the unscaled row is exactly zero.
			p.SetLength(3)
			if sc := checkAgainstOracle(t, "background far past L", p, randomSeq(rng, 4000)); sc > -800 {
				t.Errorf("far-past-L target scored %g nats: too high to have forced the downward rescale", sc)
			}
		})
	}
}

// TestForwardImpossibleEmissions: a score that is -Inf in the profile
// is an exact zero in the odds tables, so impossible paths stay
// impossible and a target with no possible path scores exactly -Inf.
func TestForwardImpossibleEmissions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h, err := hmm.Random("holes", 30, abc, hmm.DefaultBuildParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Residue 0 cannot be emitted by any match state; column 7 can
	// emit nothing but its consensus.
	for k := 1; k <= h.M; k++ {
		h.Mat[k][0] = 0
	}
	cons := h.Consensus()[6]
	for r := range h.Mat[7] {
		h.Mat[7][r] = 0
	}
	h.Mat[7][cons] = 1
	p := profile.Config(h)
	p.SetLength(60)
	if !math.IsInf(p.MSC[0][7], -1) || p.Odds.MSC[0][7] != 0 {
		t.Fatalf("column 7, residue 0: score %g, odds %g", p.MSC[0][7], p.Odds.MSC[0][7])
	}

	homolog := h.SampleSequence(rng)
	checkAgainstOracle(t, "homolog through the one-residue column", p, homolog)
	checkAgainstOracle(t, "random", p, randomSeq(rng, 60))

	allZero := make([]byte, 40) // residue 0 throughout: no match state can emit it
	gaps := make([]byte, 40)
	for i := range gaps {
		gaps[i] = alphabet.CodeGap
	}
	for what, dsq := range map[string][]byte{"unemittable residue": allZero, "gap codes": gaps, "empty": nil} {
		if sc := checkAgainstOracle(t, what, p, dsq); !math.IsInf(sc, -1) {
			t.Errorf("%s: Forward = %g, want -Inf", what, sc)
		}
	}
	// One emittable residue among the gaps opens a path again.
	gaps[20] = homolog[0]
	if sc := checkAgainstOracle(t, "gap codes around one residue", p, gaps); math.IsInf(sc, -1) {
		t.Error("one emittable residue should give a finite score")
	}
}

// FuzzForward draws a model from (seed, m), a length model from L, and
// reads the target's digital codes off the fuzzed bytes.
func FuzzForward(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(1), []byte{})
	f.Add(int64(2), uint8(1), uint16(0), []byte{3})
	f.Add(int64(3), uint8(2), uint16(100), []byte("ACDEFGHIKLMNPQRSTVWY"))
	f.Add(int64(4), uint8(40), uint16(1), []byte("\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c"))
	f.Add(int64(5), uint8(63), uint16(350), []byte("\x00\x1a\x00\x1a\x05\x05\x05"))
	f.Add(int64(6), uint8(17), uint16(65535), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Fuzz(func(t *testing.T, seed int64, m uint8, L uint16, raw []byte) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		h, err := hmm.Random("fuzz", 1+int(m%64), abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		p := profile.Config(h)
		p.SetLength(int(L))
		dsq := make([]byte, len(raw))
		for i, b := range raw {
			dsq[i] = b % byte(abc.SizeAll())
		}
		checkAgainstOracle(t, "fuzz", p, dsq)
	})
}
