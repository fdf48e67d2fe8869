package refimpl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// forwardTarget is one target the Forward tests score, with the
// profile it is scored against.
type forwardTarget struct {
	what string
	p    *profile.Profile
	dsq  []byte
}

// oracleSizes are the model sizes of TestForwardMatchesLogSpaceOracle,
// each with the configured target length L. L shrinks as M grows so
// that the oracle's 100·L target stays near two million cells.
var oracleSizes = []struct{ m, L int }{
	{1, 300}, {2, 300}, {48, 300}, {100, 200}, {400, 50}, {1056, 20},
}

// oracleTargets builds TestForwardMatchesLogSpaceOracle's targets for
// a random model of m nodes configured for length L.
func oracleTargets(t testing.TB, m, L int) []forwardTarget {
	rng := rand.New(rand.NewSource(int64(m)))
	h, err := hmm.Random("oracle", m, abc, hmm.DefaultBuildParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	p.SetLength(L)
	var ts []forwardTarget
	add := func(what string, p *profile.Profile, dsq []byte) {
		ts = append(ts, forwardTarget{what, p, dsq})
	}
	for _, n := range []int{0, 1, L, 100 * L} {
		add(fmt.Sprintf("random len %d", n), p, randomSeq(rng, n))
	}
	add("degenerate residues", p, withDegenerates(randomSeq(rng, L), 3))
	add("planted homolog", p, slices.Concat(randomSeq(rng, L/2), h.SampleSequence(rng), randomSeq(rng, L/2)))
	if m >= 48 { // a one- or two-node domain cannot add up to 1000 bits
		var tandem []byte
		for d := 0; d < 3+2500/m; d++ {
			tandem = slices.Concat(tandem, h.SampleSequence(rng), randomSeq(rng, 5))
		}
		add("tandem domains", p, tandem)
	}
	// Configured for length 3, every path halves per residue; a few
	// thousand residues on, the unscaled row is exactly zero.
	short := *p
	short.SetLength(3)
	add("background far past L", &short, randomSeq(rng, 4000))
	return ts
}

func TestForwardMatchesLogSpaceOracle(t *testing.T) {
	for _, c := range oracleSizes {
		c := c
		t.Run(fmt.Sprintf("M=%d", c.m), func(t *testing.T) {
			t.Parallel()
			for _, tg := range oracleTargets(t, c.m, c.L) {
				sc := checkAgainstOracle(t, tg.what, tg.p, tg.dsq)
				switch {
				case tg.what == "tandem domains" && sc/math.Ln2 < 1100: // past 2^1024 the unscaled row is +Inf
					t.Errorf("tandem target scored %.0f bits: too low to have forced the upward rescale", sc/math.Ln2)
				case tg.what == "background far past L" && sc > -800:
					t.Errorf("far-past-L target scored %g nats: too high to have forced the downward rescale", sc)
				}
			}
		})
	}
}

// impossibleTargets builds TestForwardImpossibleEmissions' targets: a
// model whose match states cannot emit residue 0 and whose column 7
// emits only its consensus, and targets through and around those holes.
func impossibleTargets(t testing.TB) []forwardTarget {
	rng := rand.New(rand.NewSource(11))
	h, err := hmm.Random("holes", 30, abc, hmm.DefaultBuildParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
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

	homolog := h.SampleSequence(rng)
	random := randomSeq(rng, 60)
	gaps := bytes.Repeat([]byte{alphabet.CodeGap}, 40)
	// One emittable residue among the gaps opens a path again.
	opened := slices.Clone(gaps)
	opened[20] = homolog[0]
	return []forwardTarget{
		{"homolog through the one-residue column", p, homolog},
		{"random", p, random},
		{"unemittable residue", p, make([]byte, 40)}, // residue 0 throughout
		{"gap codes", p, gaps},
		{"empty", p, nil},
		{"gap codes around one residue", p, opened},
	}
}

// TestForwardImpossibleEmissions: a score that is -Inf in the profile
// is an exact zero in the odds tables, so impossible paths stay
// impossible and a target with no possible path scores exactly -Inf.
func TestForwardImpossibleEmissions(t *testing.T) {
	ts := impossibleTargets(t)
	if p := ts[0].p; !math.IsInf(p.MSC[0][7], -1) || p.Odds.MSC[0][7] != 0 {
		t.Fatalf("column 7, residue 0: score %g, odds %g", p.MSC[0][7], p.Odds.MSC[0][7])
	}
	for _, tg := range ts {
		sc := checkAgainstOracle(t, tg.what, tg.p, tg.dsq)
		switch tg.what {
		case "unemittable residue", "gap codes", "empty":
			if !math.IsInf(sc, -1) {
				t.Errorf("%s: Forward = %g, want -Inf", tg.what, sc)
			}
		case "gap codes around one residue":
			if math.IsInf(sc, -1) {
				t.Error("one emittable residue should give a finite score")
			}
		}
	}
}

// checkPair holds each lane of ForwardPair to Forward, bit for bit.
func checkPair(t testing.TB, what string, p *profile.Profile, a, b []byte) {
	t.Helper()
	ga, gb := ForwardPair(p, a, b)
	for _, c := range []struct {
		lane string
		got  float64
		dsq  []byte
	}{{"a", ga, a}, {"b", gb, b}} {
		if want := Forward(p, c.dsq); math.Float64bits(c.got) != math.Float64bits(want) {
			t.Errorf("%s: lane %s (len %d of %d, %d) = %v, Forward = %v",
				what, c.lane, len(c.dsq), len(a), len(b), c.got, want)
		}
	}
}

// TestForwardPairMatchesForward scores every two targets of the Forward
// tests above (both rescales, -Inf and empty targets among them, and
// mostly unequal lengths) as a pair, in both lane orders, against each
// profile they are scored with.
func TestForwardPairMatchesForward(t *testing.T) {
	groups := map[string][]forwardTarget{"holes": impossibleTargets(t)}
	for _, c := range oracleSizes {
		groups[fmt.Sprintf("M=%d", c.m)] = oracleTargets(t, c.m, c.L)
	}
	for name, ts := range groups {
		ts := ts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, p := range slices.Compact([]*profile.Profile{ts[0].p, ts[len(ts)-1].p}) {
				for _, a := range ts {
					for _, b := range ts {
						checkPair(t, fmt.Sprintf("L=%d: %s | %s", p.L, a.what, b.what), p, a.dsq, b.dsq)
					}
				}
			}
		})
	}
}

// TestOddsNodeLayout pins what forward_amd64.s hard-codes of
// profile.OddsNode: seven float64 fields in this order, 56 bytes a node.
func TestOddsNodeLayout(t *testing.T) {
	typ := reflect.TypeOf(profile.OddsNode{})
	if typ.Size() != 56 || typ.NumField() != 7 {
		t.Fatalf("OddsNode is %d bytes in %d fields, the assembly reads 56 in 7", typ.Size(), typ.NumField())
	}
	for i, name := range []string{"MM", "IM", "DM", "MI", "II", "MD", "DD"} {
		if f := typ.Field(i); f.Name != name || f.Offset != uintptr(8*i) || f.Type.Kind() != reflect.Float64 {
			t.Errorf("field %d is %s %v at %d, the assembly reads float64 %s at %d", i, f.Name, f.Type, f.Offset, name, 8*i)
		}
	}
}

// FuzzForward draws a model from (seed, m), a length model from L, and
// reads the target's digital codes off the fuzzed bytes. The target cut
// in two at cut is also scored as a pair.
func FuzzForward(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(1), []byte{}, uint16(0))
	f.Add(int64(2), uint8(1), uint16(0), []byte{3}, uint16(1))
	f.Add(int64(3), uint8(2), uint16(100), []byte("ACDEFGHIKLMNPQRSTVWY"), uint16(7))
	f.Add(int64(4), uint8(40), uint16(1), []byte("\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c"), uint16(4))
	f.Add(int64(5), uint8(63), uint16(350), []byte("\x00\x1a\x00\x1a\x05\x05\x05"), uint16(2))
	f.Add(int64(6), uint8(17), uint16(65535), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, uint16(19))
	f.Fuzz(func(t *testing.T, seed int64, m uint8, L uint16, raw []byte, cut uint16) {
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
		// The two sides of a fuzzed cut, as a pair.
		c := int(cut) % (len(dsq) + 1)
		checkPair(t, "fuzz", p, dsq[:c], dsq[c:])
	})
}
