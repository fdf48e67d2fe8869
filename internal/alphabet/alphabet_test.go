package alphabet

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSymbolsCoverAllCodes(t *testing.T) {
	if len(Symbols) != Kp {
		t.Fatalf("Symbols has %d entries, want %d", len(Symbols), Kp)
	}
	a := New()
	for code := 0; code < Kp; code++ {
		got, err := a.Code(Symbols[code])
		if err != nil {
			t.Fatalf("Code(%q): %v", Symbols[code], err)
		}
		if int(got) != code {
			t.Errorf("Code(%q) = %d, want %d", Symbols[code], got, code)
		}
	}
}

func TestCodeCaseInsensitive(t *testing.T) {
	a := New()
	up, err := a.Code('W')
	if err != nil {
		t.Fatal(err)
	}
	lo, err := a.Code('w')
	if err != nil {
		t.Fatal(err)
	}
	if up != lo {
		t.Errorf("case sensitivity: W=%d w=%d", up, lo)
	}
}

func TestCodeRejectsInvalid(t *testing.T) {
	a := New()
	for _, s := range []byte{'1', '@', 0, 0xff} {
		if _, err := a.Code(s); err == nil {
			t.Errorf("Code(%q) accepted an invalid symbol", s)
		}
	}
}

func TestDigitizeTextizeRoundTrip(t *testing.T) {
	a := New()
	const text = "ACDEFGHIKLMNPQRSTVWYBJZOUX"
	dsq, err := a.Digitize(nil, []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Textize(dsq); got != text {
		t.Errorf("round trip = %q, want %q", got, text)
	}
}

func TestDigitizeSkipsWhitespace(t *testing.T) {
	a := New()
	dsq, err := a.Digitize(nil, []byte("AC D\nEF\tG\r"))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Textize(dsq); got != "ACDEFG" {
		t.Errorf("got %q, want ACDEFG", got)
	}
}

func TestDigitizeReportsPosition(t *testing.T) {
	a := New()
	if _, err := a.Digitize(nil, []byte("ACD!EF")); err == nil {
		t.Fatal("expected error for '!'")
	} else if !strings.Contains(err.Error(), "position 3") {
		t.Errorf("error %q does not name position 3", err)
	}
}

func TestGapAliases(t *testing.T) {
	a := New()
	dot, err := a.Code('.')
	if err != nil {
		t.Fatal(err)
	}
	dash, err := a.Code('-')
	if err != nil {
		t.Fatal(err)
	}
	if dot != dash || dot != CodeGap {
		t.Errorf("'.'=%d '-'=%d, want both %d", dot, dash, CodeGap)
	}
}

func TestClassPredicates(t *testing.T) {
	a := New()
	for c := byte(0); c < K; c++ {
		if !a.IsCanonical(c) || !a.IsResidue(c) || a.IsDegenerate(c) {
			t.Errorf("code %d misclassified (canonical)", c)
		}
	}
	for c := byte(K); c < CodeGap; c++ {
		if a.IsCanonical(c) || !a.IsResidue(c) || !a.IsDegenerate(c) {
			t.Errorf("code %d misclassified (degenerate)", c)
		}
	}
	for c := byte(CodeGap); c < Kp; c++ {
		if a.IsResidue(c) {
			t.Errorf("code %d misclassified (gap-like)", c)
		}
	}
}

func TestExpandDegenerates(t *testing.T) {
	a := New()
	mustCode := func(s byte) byte {
		c, err := a.Code(s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	bCode := mustCode('B')
	exp := a.Expand(bCode)
	if len(exp) != 2 {
		t.Fatalf("Expand(B) = %v, want 2 residues", exp)
	}
	want := map[byte]bool{mustCode('D'): true, mustCode('N'): true}
	for _, r := range exp {
		if !want[r] {
			t.Errorf("Expand(B) contains unexpected residue %d", r)
		}
	}
	if x := a.Expand(mustCode('X')); len(x) != K {
		t.Errorf("Expand(X) = %d residues, want %d", len(x), K)
	}
	if g := a.Expand(CodeGap); len(g) != 0 {
		t.Errorf("Expand(gap) = %v, want empty", g)
	}
	if got := a.Expand(mustCode('A')); len(got) != 1 || got[0] != 0 {
		t.Errorf("Expand(A) = %v, want [0]", got)
	}
}

func TestBackgroundSumsToOne(t *testing.T) {
	a := New()
	var sum float64
	for c := byte(0); c < K; c++ {
		f := a.Background(c)
		if f <= 0 || f >= 1 {
			t.Errorf("Background(%d) = %g out of (0,1)", c, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("background sums to %g, want ~1", sum)
	}
	if a.Background(K) != 0 {
		t.Errorf("Background of non-canonical code should be 0")
	}
}

func TestDegenerateScoreMarginalises(t *testing.T) {
	a := New()
	scores := make([]float64, K)
	for i := range scores {
		scores[i] = float64(i)
	}
	// Canonical code passes through.
	if got := a.DegenerateScore(5, scores); got != 5 {
		t.Errorf("DegenerateScore(canonical) = %g, want 5", got)
	}
	// B = {D=2, N=11} weighted by backgrounds.
	bCode, _ := a.Code('B')
	wD, wN := a.Background(2), a.Background(11)
	want := (wD*2 + wN*11) / (wD + wN)
	if got := a.DegenerateScore(bCode, scores); math.Abs(got-want) > 1e-12 {
		t.Errorf("DegenerateScore(B) = %g, want %g", got, want)
	}
	// Gap-like codes score 0.
	if got := a.DegenerateScore(CodeGap, scores); got != 0 {
		t.Errorf("DegenerateScore(gap) = %g, want 0", got)
	}
}

func TestPackUnpackRoundTripProperty(t *testing.T) {
	f := func(raw []byte) bool {
		dsq := make([]byte, len(raw))
		for i, b := range raw {
			dsq[i] = b % Kp
		}
		return string(Unpack(Pack(dsq), len(dsq))) == string(dsq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPackSentinelFillsSlack(t *testing.T) {
	dsq := []byte{1, 2, 3, 4} // 4 residues -> 1 word with 2 sentinel slots
	words := Pack(dsq)
	if len(words) != 1 {
		t.Fatalf("packed %d words, want 1", len(words))
	}
	for s := 4; s < ResiduesPerWord; s++ {
		got := byte((words[0] >> (5 * s)) & 31)
		if got != PackSentinel {
			t.Errorf("slot %d = %d, want sentinel %d", s, got, PackSentinel)
		}
	}
}

func TestPackedAtMatchesUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dsq := make([]byte, 1000)
	for i := range dsq {
		dsq[i] = byte(rng.Intn(Kp))
	}
	words := Pack(dsq)
	for i, want := range dsq {
		if got := PackedAt(words, i); got != want {
			t.Fatalf("PackedAt(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestPackedLen(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {5, 1}, {6, 1}, {7, 2}, {12, 2}, {13, 3},
	}
	for _, c := range cases {
		if got := PackedLen(c.n); got != c.want {
			t.Errorf("PackedLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPackCompressionRatio(t *testing.T) {
	// 6 residues per 4-byte word: ~1.5x fewer bytes than 1 byte/residue,
	// i.e. 6 residues in 4 bytes.
	n := 6000
	words := Pack(make([]byte, n))
	if got := 4 * len(words); got != 4000 {
		t.Errorf("packed %d residues into %d bytes, want 4000", n, got)
	}
}
