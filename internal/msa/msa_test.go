package msa

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/refimpl"
)

var abc = alphabet.New()

const smallMSA = `>row1 description ignored
ACDE-FG
>row2
ACDEQFG
>row3
AC-EQFG
`

func TestReadAlignedFasta(t *testing.T) {
	m, err := Read(strings.NewReader(smallMSA), abc)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSeqs() != 3 || m.Cols != 7 {
		t.Fatalf("got %d rows x %d cols", m.NumSeqs(), m.Cols)
	}
	if m.Names[0] != "row1" || m.Names[2] != "row3" {
		t.Errorf("names = %v", m.Names)
	}
	if m.Rows[0][4] != alphabet.CodeGap {
		t.Errorf("row1 col4 = %d, want gap", m.Rows[0][4])
	}
}

func TestReadRejectsRaggedRows(t *testing.T) {
	in := ">a\nACDE\n>b\nACD\n"
	if _, err := Read(strings.NewReader(in), abc); err == nil {
		t.Error("ragged alignment accepted")
	}
	if _, err := Read(strings.NewReader(""), abc); err == nil {
		t.Error("empty alignment accepted")
	}
	if _, err := Read(strings.NewReader("ACDE\n"), abc); err == nil {
		t.Error("headerless data accepted")
	}
}

func TestBuildBasicModel(t *testing.T) {
	m, err := Read(strings.NewReader(smallMSA), abc)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build("fam", m, abc, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	// All 7 columns have >= 2/3 residues, so all are consensus.
	if h.M != 7 {
		t.Fatalf("M = %d, want 7", h.M)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Column 1 is all-A: the match distribution must peak strongly on A.
	if h.Mat[1][0] < 0.5 {
		t.Errorf("Mat[1][A] = %g, want dominant", h.Mat[1][0])
	}
	// Column 5 (index 4) has a gap in row1 -> some D usage, so the
	// model must assign nonzero M->D probability somewhere upstream.
	var sawMD bool
	for k := 1; k < h.M; k++ {
		if h.T[k][hmm.TMD] > 0.05 {
			sawMD = true
		}
	}
	if !sawMD {
		t.Error("gapped column left no M->D signal")
	}
}

func TestBuildInsertColumns(t *testing.T) {
	// Middle column is residue-poor -> insert column; the model length
	// must be 4, not 5.
	in := ">a\nAC-DE\n>b\nAC-DE\n>c\nACWDE\n"
	m, err := Read(strings.NewReader(in), abc)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build("ins", m, abc, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.M != 4 {
		t.Fatalf("M = %d, want 4 (one insert column)", h.M)
	}
	// The insertion happens after node 2, so M2->I2 got a count.
	if h.T[2][hmm.TMI] <= h.T[1][hmm.TMI] {
		t.Errorf("insert signal missing: TMI[2]=%g TMI[1]=%g", h.T[2][hmm.TMI], h.T[1][hmm.TMI])
	}
}

func TestBuildOptionValidation(t *testing.T) {
	m, _ := Read(strings.NewReader(smallMSA), abc)
	bad := []BuildOptions{
		{ConsensusFraction: 0, EmissionPrior: 0.1, TransitionPrior: 0.1},
		{ConsensusFraction: 1.5, EmissionPrior: 0.1, TransitionPrior: 0.1},
		{ConsensusFraction: 0.5, EmissionPrior: 0, TransitionPrior: 0.1},
		{ConsensusFraction: 0.5, EmissionPrior: 0.1, TransitionPrior: 0},
	}
	for i, o := range bad {
		if _, err := Build("bad", m, abc, o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// All-gap alignment has no consensus columns.
	g, err := Read(strings.NewReader(">a\n----\n>b\n----\n"), abc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build("gaps", g, abc, DefaultBuildOptions()); err == nil {
		t.Error("gap-only alignment accepted")
	}
}

// TestBuildRecoversSampledFamily is the round-trip soundness test:
// sample sequences from a known model, align them trivially (they are
// all full-length consensus paths), rebuild, and check that the
// rebuilt model scores fresh homologs far above random sequences.
func TestBuildRecoversSampledFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	truth, err := hmm.Random("truth", 50, abc,
		hmm.BuildParams{MatchIdentity: 0.8, GapOpen: 0.001, GapExtend: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// With GapOpen ~ 0 the samples are all length M: a trivial MSA.
	m := &MSA{Name: "fam", Cols: truth.M}
	for i := 0; i < 40; i++ {
		s := truth.SampleSequence(rng)
		if len(s) != truth.M {
			i--
			continue
		}
		m.Names = append(m.Names, "s")
		m.Rows = append(m.Rows, s)
	}
	rebuilt, err := Build("rebuilt", m, abc, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.M != truth.M {
		t.Fatalf("rebuilt M = %d, want %d", rebuilt.M, truth.M)
	}
	p := profile.Config(rebuilt)
	homolog := truth.SampleSequence(rng)
	random := make([]byte, len(homolog))
	for i := range random {
		random[i] = byte(rng.Intn(20))
	}
	p.SetLength(len(homolog))
	hs, rs := refimpl.Viterbi(p, homolog), refimpl.Viterbi(p, random)
	if hs < rs+10 {
		t.Errorf("rebuilt model separates poorly: homolog %g vs random %g", hs, rs)
	}
}

const stockholmSample = `# STOCKHOLM 1.0
#=GF ID TestFam
#=GS row1 AC Q12345
row1 ACDE-
row2 ACDEF

row1 FGHIK
row2 FGHIK
#=GC SS_cons xxxxx
//
`

func TestReadStockholmInterleaved(t *testing.T) {
	m, err := ReadStockholm(strings.NewReader(stockholmSample), abc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "TestFam" {
		t.Errorf("ID = %q", m.Name)
	}
	if m.NumSeqs() != 2 || m.Cols != 10 {
		t.Fatalf("got %d rows x %d cols, want 2 x 10", m.NumSeqs(), m.Cols)
	}
	if abc.Textize(m.Rows[0]) != "ACDE-FGHIK" {
		t.Errorf("row1 = %q", abc.Textize(m.Rows[0]))
	}
}

func TestStockholmRoundTrip(t *testing.T) {
	m, err := Read(strings.NewReader(smallMSA), abc)
	if err != nil {
		t.Fatal(err)
	}
	m.Name = "RT"
	var buf strings.Builder
	if err := WriteStockholm(&buf, m, abc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStockholm(strings.NewReader(buf.String()), abc)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSeqs() != m.NumSeqs() || back.Cols != m.Cols || back.Name != "RT" {
		t.Fatalf("round trip mismatch: %d x %d (%q)", back.NumSeqs(), back.Cols, back.Name)
	}
	for i := range m.Rows {
		if abc.Textize(back.Rows[i]) != abc.Textize(m.Rows[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestReadStockholmErrors(t *testing.T) {
	cases := map[string]string{
		"no header":     "row1 ACDE\n//\n",
		"no terminator": "# STOCKHOLM 1.0\nrow1 ACDE\n",
		"ragged":        "# STOCKHOLM 1.0\nrow1 ACDE\nrow2 ACD\n//\n",
		"empty":         "# STOCKHOLM 1.0\n//\n",
		"bad fields":    "# STOCKHOLM 1.0\nrow1 AC DE\n//\n",
	}
	for name, in := range cases {
		if _, err := ReadStockholm(strings.NewReader(in), abc); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestHenikoffWeightsDownweightDuplicates(t *testing.T) {
	// Three identical rows and one divergent row: the divergent row
	// must carry more weight than each duplicate.
	in := ">a\nAAAA\n>b\nAAAA\n>c\nAAAA\n>d\nWYWY\n"
	m, err := Read(strings.NewReader(in), abc)
	if err != nil {
		t.Fatal(err)
	}
	w := HenikoffWeights(m, abc)
	if len(w) != 4 {
		t.Fatalf("got %d weights", len(w))
	}
	if !(w[3] > w[0] && w[0] == w[1] && w[1] == w[2]) {
		t.Errorf("weights = %v; want the divergent row dominant", w)
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-4) > 1e-9 {
		t.Errorf("weights sum to %g, want 4", sum)
	}

	// A uniform alignment has uniform weights.
	u, err := Read(strings.NewReader(">a\nACDE\n>b\nWYWY\n"), abc)
	if err != nil {
		t.Fatal(err)
	}
	uw := HenikoffWeights(u, abc)
	if math.Abs(uw[0]-uw[1]) > 1e-9 {
		t.Errorf("two distinct rows should weigh equally: %v", uw)
	}
}

func TestBuildWeightsResistRedundancy(t *testing.T) {
	// 9 near-identical rows pushing consensus 'A' vs 3 distinct rows
	// supporting 'W' at column 1. Weighted building should give W more
	// probability than unweighted building does.
	var sb strings.Builder
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&sb, ">dup%d\nACCA\n", i)
	}
	sb.WriteString(">x\nWCCA\n>y\nWDCA\n>z\nWCEA\n")
	m, err := Read(strings.NewReader(sb.String()), abc)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Build("w", m, abc, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultBuildOptions()
	opts.NoWeights = true
	unweighted, err := Build("u", m, abc, opts)
	if err != nil {
		t.Fatal(err)
	}
	wCode, _ := abc.Code('W')
	if weighted.Mat[1][wCode] <= unweighted.Mat[1][wCode] {
		t.Errorf("weighting should lift the minority residue: %.3f vs %.3f",
			weighted.Mat[1][wCode], unweighted.Mat[1][wCode])
	}
}

// WriteStockholm emits the alignment in single-block Stockholm form,
// the writer half of the Stockholm round trip.
func WriteStockholm(w io.Writer, m *MSA, abc *alphabet.Alphabet) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# STOCKHOLM 1.0")
	if m.Name != "" {
		fmt.Fprintf(bw, "#=GF ID %s\n", m.Name)
	}
	width := 0
	for _, n := range m.Names {
		if len(n) > width {
			width = len(n)
		}
	}
	for i, row := range m.Rows {
		fmt.Fprintf(bw, "%-*s %s\n", width, m.Names[i], abc.Textize(row))
	}
	fmt.Fprintln(bw, "//")
	return bw.Flush()
}
