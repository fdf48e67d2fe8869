package profile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/satmath"
)

var abc = alphabet.New()

func testProfile(t testing.TB, m int, seed int64) *Profile {
	t.Helper()
	h, err := hmm.Random("p", m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return Config(h)
}

func TestConfigScoresConsistent(t *testing.T) {
	p := testProfile(t, 30, 1)
	// Expected-value identity: sum over residues of bg[r]*exp(msc) = 1
	// for every node, because msc = ln(mat/bg) and mat sums to 1.
	for k := 1; k <= p.M; k++ {
		var sum float64
		for r := 0; r < abc.Size(); r++ {
			sum += abc.Background(byte(r)) * math.Exp(p.MSC[r][k])
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("node %d: sum bg*odds = %g, want 1", k, sum)
		}
	}
}

func TestConfigDegenerateScoresBounded(t *testing.T) {
	p := testProfile(t, 20, 2)
	// A degenerate residue's score must lie within [min,max] of its
	// expansion's scores.
	bCode, _ := abc.Code('B')
	dCode, _ := abc.Code('D')
	nCode, _ := abc.Code('N')
	for k := 1; k <= p.M; k++ {
		lo := math.Min(p.MSC[dCode][k], p.MSC[nCode][k])
		hi := math.Max(p.MSC[dCode][k], p.MSC[nCode][k])
		got := p.MSC[bCode][k]
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Errorf("node %d: MSC[B]=%g outside [%g,%g]", k, got, lo, hi)
		}
	}
}

func TestGapCodesScoreNegInf(t *testing.T) {
	p := testProfile(t, 10, 3)
	for _, c := range []byte{alphabet.CodeGap, alphabet.CodeEnd, alphabet.CodeMissing} {
		if !math.IsInf(p.MSC[c][5], -1) {
			t.Errorf("code %d scores %g, want -inf", c, p.MSC[c][5])
		}
	}
	if !math.IsInf(p.MatchScore(200, 5), -1) {
		t.Error("out-of-range residue should score -inf")
	}
	if !math.IsInf(p.MatchScore(0, 0), -1) || !math.IsInf(p.MatchScore(0, p.M+1), -1) {
		t.Error("out-of-range node should score -inf")
	}
}

func TestSetLength(t *testing.T) {
	p := testProfile(t, 10, 4)
	p.SetLength(100)
	if math.Abs(p.TLoop-math.Log(100.0/103)) > 1e-12 {
		t.Errorf("TLoop = %g", p.TLoop)
	}
	if math.Abs(p.TMove-math.Log(3.0/103)) > 1e-12 {
		t.Errorf("TMove = %g", p.TMove)
	}
	if math.Exp(p.TLoop)+math.Exp(p.TMove) > 1+1e-12 {
		t.Error("length model probabilities exceed 1")
	}
}

func TestEntryExitScores(t *testing.T) {
	p := testProfile(t, 40, 5)
	wantTBM := math.Log(2.0 / (40.0 * 41.0))
	if math.Abs(p.TBM-wantTBM) > 1e-12 {
		t.Errorf("TBM = %g, want %g", p.TBM, wantTBM)
	}
	if p.TEC != math.Log(0.5) || p.TEJ != math.Log(0.5) {
		t.Errorf("multihit E transitions wrong: TEC=%g TEJ=%g", p.TEC, p.TEJ)
	}
}

func TestTransitionBoundaries(t *testing.T) {
	p := testProfile(t, 15, 6)
	// No transitions out of node 0 (entry is via TBM) or node M.
	for _, arr := range [][]float64{p.TMM, p.TMI, p.TMD, p.TIM, p.TII, p.TDM, p.TDD} {
		if !math.IsInf(arr[0], -1) || !math.IsInf(arr[p.M], -1) {
			t.Fatal("boundary transitions should be -inf")
		}
	}
	for k := 1; k < p.M; k++ {
		if p.TMM[k] >= 0 || math.IsInf(p.TMM[k], -1) {
			t.Errorf("TMM[%d] = %g not a finite negative log prob", k, p.TMM[k])
		}
	}
}

func TestMSVProfileQuantisation(t *testing.T) {
	p := testProfile(t, 25, 7)
	p.SetLength(150)
	mp := NewMSVProfile(p)
	if mp.L != 150 {
		t.Errorf("L = %d", mp.L)
	}
	// Bias must cover the best emission: best costs are >= 0 by
	// construction and the best emission has cost bias - maxUnit = 0.
	sawZero := false
	for r := 0; r < abc.Size(); r++ {
		for k := 1; k <= p.M; k++ {
			c := mp.MatCost[r][k]
			wantUnits := int(math.Round(p.MSC[r][k] * MSVScale))
			want := int(mp.Bias) - wantUnits
			if want < 0 {
				t.Fatalf("bias %d too small for unit %d", mp.Bias, wantUnits)
			}
			if want > 255 {
				want = 255
			}
			if int(c) != want {
				t.Errorf("cost[%d][%d] = %d, want %d", r, k, c, want)
			}
			if c == 0 {
				sawZero = true
			}
		}
	}
	if !sawZero {
		t.Error("no zero-cost (best) emission found; bias is miscalibrated")
	}
	// Gap codes and sentinel positions carry max cost.
	if mp.Cost(alphabet.CodeGap, 3) != 255 || mp.Cost(alphabet.PackSentinel, 3) != 255 {
		t.Error("gap/sentinel cost should be 255")
	}
	if mp.Cost(0, 0) != 255 || mp.Cost(0, p.M+1) != 255 {
		t.Error("out-of-range node cost should be 255")
	}
}

func TestMSVScoreToNatsInvertsQuantisation(t *testing.T) {
	p := testProfile(t, 10, 8)
	p.SetLength(350)
	mp := NewMSVProfile(p)
	// xJ = base corresponds to a raw unit score of 0.
	got := mp.ScoreToNats(MSVBase)
	want := p.TMove - 3.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ScoreToNats(base) = %g, want %g", got, want)
	}
}

func TestMSVStripedLayout(t *testing.T) {
	p := testProfile(t, 21, 9)
	p.SetLength(100)
	mp := NewMSVProfile(p)
	const w = 16
	q := StripedSegments(mp.M, w)
	if q != 2 {
		t.Fatalf("Q = %d, want 2 for M=21, width=16", q)
	}
	for r := range mp.MatCost {
		seen := make([]int, mp.M+1)
		for qi := 0; qi < q; qi++ {
			for l := 0; l < w; l++ {
				k := qi + l*q + 1
				got := mp.StripedCost(r, qi, l, w)
				want := uint8(255)
				if k <= mp.M {
					want = mp.MatCost[r][k]
					seen[k]++
				}
				if got != want {
					t.Fatalf("StripedCost(%d, q=%d, l=%d) = %d, want %d (k=%d)", r, qi, l, got, want, k)
				}
			}
		}
		for k := 1; k <= mp.M; k++ {
			if seen[k] != 1 {
				t.Fatalf("code %d: node %d lies in %d lanes, want 1", r, k, seen[k])
			}
		}
	}
}

func TestStripedSegments(t *testing.T) {
	cases := []struct{ m, w, want int }{
		{1, 16, 1}, {16, 16, 1}, {17, 16, 2}, {400, 16, 25}, {5, 32, 1},
	}
	for _, c := range cases {
		if got := StripedSegments(c.m, c.w); got != c.want {
			t.Errorf("StripedSegments(%d,%d) = %d, want %d", c.m, c.w, got, c.want)
		}
	}
}

func TestVitProfileQuantisation(t *testing.T) {
	p := testProfile(t, 30, 10)
	p.SetLength(200)
	vp := NewVitProfile(p)
	for r := 0; r < abc.Size(); r++ {
		for k := 1; k <= p.M; k++ {
			want := int16(math.Round(p.MSC[r][k] * VitScale))
			if vp.MatUnit[r][k] != want {
				t.Errorf("MatUnit[%d][%d] = %d, want %d", r, k, vp.MatUnit[r][k], want)
			}
		}
	}
	// -inf transitions map to NegInf16.
	if vp.TMM[0] != satmath.NegInf16 || vp.TDD[p.M] != satmath.NegInf16 {
		t.Error("boundary transitions should quantise to NegInf16")
	}
	if vp.MatchUnit(alphabet.CodeGap, 4) != satmath.NegInf16 {
		t.Error("gap residue should score NegInf16")
	}
	if vp.MatchUnit(0, 0) != satmath.NegInf16 || vp.MatchUnit(0, p.M+1) != satmath.NegInf16 {
		t.Error("out-of-range node should score NegInf16")
	}
}

func TestVitProfileSetLengthRescales(t *testing.T) {
	p := testProfile(t, 10, 11)
	p.SetLength(100)
	vp := NewVitProfile(p)
	m100 := vp.TMove
	vp.SetLength(10000)
	if vp.TMove >= m100 {
		t.Errorf("TMove should get more negative with longer targets: %d -> %d", m100, vp.TMove)
	}
}

func TestOverflowed(t *testing.T) {
	if Overflowed(32766) || !Overflowed(32767) {
		t.Error("Overflowed threshold wrong")
	}
}

func TestPackTerminatedAlwaysHasSentinel(t *testing.T) {
	f := func(raw []byte) bool {
		dsq := make([]byte, len(raw))
		for i, b := range raw {
			dsq[i] = b % 20
		}
		words := PackTerminated(dsq)
		// The residue right after the last real one must be the sentinel.
		if alphabet.PackedAt(words, len(dsq)) != alphabet.PackSentinel {
			return false
		}
		// And the packed data must still round-trip.
		got := alphabet.Unpack(words, len(dsq))
		return string(got) == string(dsq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuantisationErrorBounded(t *testing.T) {
	// Quantised emission scores must stay within half a unit of the
	// float score (where not saturated).
	p := testProfile(t, 40, 12)
	p.SetLength(300)
	mp := NewMSVProfile(p)
	vp := NewVitProfile(p)
	for r := 0; r < abc.Size(); r++ {
		for k := 1; k <= p.M; k++ {
			sc := p.MSC[r][k]
			mGot := (float64(mp.Bias) - float64(mp.MatCost[r][k])) / MSVScale
			if mp.MatCost[r][k] != 255 && math.Abs(mGot-sc) > 0.5/MSVScale+1e-9 {
				t.Errorf("MSV quantisation error at [%d][%d]: %g vs %g", r, k, mGot, sc)
			}
			vGot := float64(vp.MatUnit[r][k]) / VitScale
			if math.Abs(vGot-sc) > 0.5/VitScale+1e-9 {
				t.Errorf("Vit quantisation error at [%d][%d]: %g vs %g", r, k, vGot, sc)
			}
		}
	}
}
