package hmm

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hmmer3gpu/internal/alphabet"
)

var abc = alphabet.New()

func testModel(t testing.TB, m int, seed int64) *Plan7 {
	t.Helper()
	h, err := Random("test", m, abc, DefaultBuildParams(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewRejectsBadLength(t *testing.T) {
	if _, err := New(0, abc); err == nil {
		t.Error("New(0) accepted")
	}
	if _, err := New(-5, abc); err == nil {
		t.Error("New(-5) accepted")
	}
}

func TestRandomModelValidates(t *testing.T) {
	for _, m := range []int{1, 2, 48, 400} {
		h := testModel(t, m, int64(m))
		if err := h.Validate(); err != nil {
			t.Errorf("M=%d: %v", m, err)
		}
		if h.M != m {
			t.Errorf("M=%d: model length %d", m, h.M)
		}
	}
}

func TestFromConsensusPeaksOnConsensus(t *testing.T) {
	cons, err := abc.Digitize(nil, []byte("ACDEFGHIKW"))
	if err != nil {
		t.Fatal(err)
	}
	h, err := FromConsensus("peak", cons, abc, DefaultBuildParams())
	if err != nil {
		t.Fatal(err)
	}
	got := h.Consensus()
	if !bytes.Equal(got, cons) {
		t.Errorf("Consensus() = %q, want %q", abc.Textize(got), abc.Textize(cons))
	}
}

func TestFromConsensusRejectsBadParams(t *testing.T) {
	cons := []byte{0, 1, 2}
	bad := []BuildParams{
		{MatchIdentity: 0, GapOpen: 0.01, GapExtend: 0.4},
		{MatchIdentity: 1, GapOpen: 0.01, GapExtend: 0.4},
		{MatchIdentity: 0.5, GapOpen: 0.6, GapExtend: 0.4},
		{MatchIdentity: 0.5, GapOpen: 0.01, GapExtend: 0},
	}
	for i, p := range bad {
		if _, err := FromConsensus("bad", cons, abc, p); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
	if _, err := FromConsensus("bad", []byte{25}, abc, DefaultBuildParams()); err == nil {
		t.Error("non-canonical consensus accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	h := testModel(t, 10, 1)
	h.Mat[3][0] += 0.5
	if err := h.Validate(); err == nil {
		t.Error("corrupted match emissions accepted")
	}
	h = testModel(t, 10, 1)
	h.T[4][TMM] = 2
	if err := h.Validate(); err == nil {
		t.Error("corrupted transitions accepted")
	}
	h = testModel(t, 10, 1)
	h.Ins[2][5] = math.NaN()
	if err := h.Validate(); err == nil {
		t.Error("NaN insert emissions accepted")
	}
}

func TestMeanMatchEntropyPositiveForPeakedModel(t *testing.T) {
	h := testModel(t, 50, 2)
	e := h.MeanMatchEntropy()
	if e <= 0 || e > math.Log2(20) {
		t.Errorf("entropy %g out of plausible range", e)
	}
	// A background-emitting model has ~0 relative entropy.
	flat, err := New(5, abc)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		copy(flat.Mat[k], abc.Backgrounds())
	}
	if e := flat.MeanMatchEntropy(); math.Abs(e) > 1e-9 {
		t.Errorf("flat model entropy %g, want 0", e)
	}
}

func TestSampleSequencePlausible(t *testing.T) {
	h := testModel(t, 100, 4)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		s := h.SampleSequence(rng)
		if len(s) == 0 {
			t.Fatal("sampled empty sequence")
		}
		// With GapOpen=0.01 the emitted length should be near M.
		if len(s) < h.M/2 || len(s) > h.M*2 {
			t.Errorf("sampled length %d implausible for M=%d", len(s), h.M)
		}
		for _, r := range s {
			if int(r) >= abc.Size() {
				t.Fatalf("sampled non-canonical residue %d", r)
			}
		}
	}
}

func TestSampleSequenceMatchesConsensusOften(t *testing.T) {
	cons, _ := abc.Digitize(nil, []byte("ACDEFGHIKLMNPQRSTVWY"))
	h, err := FromConsensus("c", cons, abc, BuildParams{MatchIdentity: 0.9, GapOpen: 0.001, GapExtend: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	match, total := 0, 0
	for i := 0; i < 200; i++ {
		s := h.SampleSequence(rng)
		if len(s) != len(cons) {
			continue
		}
		for j := range s {
			if s[j] == cons[j] {
				match++
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no full-length samples")
	}
	frac := float64(match) / float64(total)
	if frac < 0.8 {
		t.Errorf("consensus identity %.2f, want >= 0.8", frac)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	h := testModel(t, 37, 6)
	h.Acc = "RP00001"
	h.Desc = "round trip test model"
	h.Stats = CalibrationStats{
		MSVMu: -8.5, MSVLambda: math.Log(2),
		VitMu: -10.25, VitLambda: math.Log(2),
		FwdTau: -4.0, FwdLambda: math.Log(2),
		Calibrated: true,
	}
	var buf bytes.Buffer
	if err := Write(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, abc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != h.Name || back.Acc != h.Acc || back.Desc != h.Desc || back.M != h.M {
		t.Errorf("metadata mismatch: %+v", back)
	}
	if !back.Stats.Calibrated {
		t.Error("stats not round-tripped")
	}
	if math.Abs(back.Stats.MSVMu-h.Stats.MSVMu) > 1e-3 {
		t.Errorf("MSVMu %g != %g", back.Stats.MSVMu, h.Stats.MSVMu)
	}
	const tol = 1e-4 // 5-decimal-digit serialisation
	for k := 1; k <= h.M; k++ {
		for r := range h.Mat[k] {
			if math.Abs(back.Mat[k][r]-h.Mat[k][r]) > tol {
				t.Fatalf("Mat[%d][%d] %g != %g", k, r, back.Mat[k][r], h.Mat[k][r])
			}
		}
		for c := 0; c < NTrans; c++ {
			if math.Abs(back.T[k][c]-h.T[k][c]) > tol {
				t.Fatalf("T[%d][%d] %g != %g", k, c, back.T[k][c], h.T[k][c])
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not hmmer":    "FASTA nonsense\n",
		"no leng":      "HMMER3/f\nNAME x\nALPH amino\nHMM ...\n  hdr\n",
		"empty":        "",
		"truncated":    "HMMER3/f\nNAME x\nLENG 5\nALPH amino\nHMM h\n hdr\n",
		"bad alphabet": "HMMER3/f\nNAME x\nLENG 5\nALPH dna\n",
	}
	for name, in := range cases {
		if _, err := Read(bytes.NewReader([]byte(in)), abc); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		m := int(mRaw)%30 + 1
		h, err := Random("prop", m, abc, DefaultBuildParams(), rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, h); err != nil {
			return false
		}
		back, err := Read(&buf, abc)
		if err != nil {
			return false
		}
		return back.M == h.M && back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestComputeCompoAveragesEmissions(t *testing.T) {
	h := testModel(t, 10, 8)
	h.ComputeCompo()
	var sum float64
	for _, p := range h.Compo {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("COMPO sums to %g", sum)
	}
}

func TestReadAllMultipleModels(t *testing.T) {
	var buf bytes.Buffer
	var want []*Plan7
	for i := 0; i < 3; i++ {
		h := testModel(t, 5+i*7, int64(40+i))
		h.Name = string(rune('A' + i))
		want = append(want, h)
		if err := Write(&buf, h); err != nil {
			t.Fatal(err)
		}
	}
	models, err := ReadAll(&buf, abc)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 3 {
		t.Fatalf("parsed %d models, want 3", len(models))
	}
	for i, m := range models {
		if m.Name != want[i].Name || m.M != want[i].M {
			t.Errorf("model %d: got %s/M=%d, want %s/M=%d", i, m.Name, m.M, want[i].Name, want[i].M)
		}
	}
	if _, err := ReadAll(bytes.NewReader(nil), abc); err == nil {
		t.Error("empty multi-model file accepted")
	}
}

func TestReadToleratesAnnotationColumns(t *testing.T) {
	// Real HMMER files carry MAP/CONS/RF/MM/CS annotation columns after
	// the match emissions; the parser must skip them.
	h := testModel(t, 4, 77)
	var buf bytes.Buffer
	if err := Write(&buf, h); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	for i, ln := range lines {
		trimmed := strings.TrimSpace(ln)
		if len(trimmed) > 0 && trimmed[0] >= '1' && trimmed[0] <= '9' &&
			len(strings.Fields(trimmed)) == 21 {
			lines[i] = ln + "  17 x - - -" // MAP CONS RF MM CS
		}
	}
	back, err := Read(strings.NewReader(strings.Join(lines, "\n")), abc)
	if err != nil {
		t.Fatal(err)
	}
	if back.M != h.M {
		t.Errorf("M = %d, want %d", back.M, h.M)
	}
}
