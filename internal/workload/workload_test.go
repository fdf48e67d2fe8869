package workload

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hmmer3gpu/internal/alphabet"
)

var abc = alphabet.New()

func TestSwissprotLikeStatistics(t *testing.T) {
	spec := SwissprotLike(0.01, 1)
	if spec.NumSeqs != 4595 {
		t.Errorf("scaled seq count = %d", spec.NumSeqs)
	}
	model, err := Model("q", 100, abc, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Generate(spec, model, abc)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSeqs() != spec.NumSeqs {
		t.Fatalf("generated %d sequences", db.NumSeqs())
	}
	mean := db.MeanLen()
	if mean < 300 || mean > 460 {
		t.Errorf("mean length %.1f, want ~374", mean)
	}
	// Length distribution should be skewed: median < mean.
	lens := make([]int, db.NumSeqs())
	for i, s := range db.Seqs {
		lens[i] = s.Len()
	}
	sort.Ints(lens)
	if med := lens[len(lens)/2]; float64(med) >= mean {
		t.Errorf("median %d >= mean %.1f; expected right skew", med, mean)
	}
}

func TestEnvnrLikeShorter(t *testing.T) {
	model, err := Model("q", 100, abc, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Generate(SwissprotLike(0.002, 4), model, abc)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Generate(EnvnrLike(0.0002, 5), model, abc)
	if err != nil {
		t.Fatal(err)
	}
	if env.MeanLen() >= sp.MeanLen() {
		t.Errorf("envnr mean %.1f should be below swissprot mean %.1f", env.MeanLen(), sp.MeanLen())
	}
	// Envnr is the larger database per unit scale.
	full := float64(6549721) * 0.0002
	if math.Abs(float64(env.NumSeqs())-full) > 1 {
		t.Errorf("envnr scaled count %d, want ~%g", env.NumSeqs(), full)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(DBSpec{Name: "x", NumSeqs: 0}, nil, abc); err == nil {
		t.Error("zero sequences accepted")
	}
	spec := DBSpec{Name: "x", NumSeqs: 10, MeanLen: 100, LogSigma: 0.5, MinLen: 10, MaxLen: 500, HomologFrac: 0.5}
	if _, err := Generate(spec, nil, abc); err == nil {
		t.Error("homologs without model accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	model, err := Model("q", 60, abc, 6)
	if err != nil {
		t.Fatal(err)
	}
	spec := SwissprotLike(0.001, 7)
	a, err := Generate(spec, model, abc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, model, abc)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSeqs() != b.NumSeqs() || a.TotalResidues() != b.TotalResidues() {
		t.Error("same spec should regenerate the same database")
	}
	for i := range a.Seqs {
		if a.Seqs[i].Name != b.Seqs[i].Name || a.Seqs[i].Len() != b.Seqs[i].Len() {
			t.Fatalf("sequence %d differs between runs", i)
		}
	}
}

func TestGenerateAllResiduesCanonical(t *testing.T) {
	model, err := Model("q", 40, abc, 8)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Generate(EnvnrLike(0.00005, 9), model, abc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range db.Seqs {
		if err := s.Validate(abc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPfamSizeDistribution(t *testing.T) {
	total, buckets := PfamSizeDistribution()
	if total != 34831 {
		t.Errorf("total = %d", total)
	}
	var sum float64
	for _, b := range buckets {
		sum += b.Fraction
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("fractions sum to %g", sum)
	}
}

func TestPaperModelSizes(t *testing.T) {
	want := []int{48, 100, 200, 400, 800, 1002, 1528, 2405}
	if len(PaperModelSizes) != len(want) {
		t.Fatal("size sweep changed")
	}
	for i := range want {
		if PaperModelSizes[i] != want[i] {
			t.Errorf("sweep[%d] = %d", i, PaperModelSizes[i])
		}
	}
}

func TestMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	orig := make([]byte, 2000)
	for i := range orig {
		orig[i] = byte(rng.Intn(20))
	}
	// Rate 0: identical. Rate 1: nearly everything redrawn.
	if got := Mutate(orig, 0, abc, rng); !bytes.Equal(got, orig) {
		t.Error("rate 0 changed the sequence")
	}
	full := Mutate(orig, 1, abc, rng)
	same := 0
	for i := range orig {
		if full[i] == orig[i] {
			same++
		}
	}
	// Background redraws collide with the original ~7% of the time.
	if frac := float64(same) / float64(len(orig)); frac > 0.2 {
		t.Errorf("rate 1 kept %.2f of residues", frac)
	}
	// Intermediate rate: roughly that fraction differs.
	half := Mutate(orig, 0.5, abc, rng)
	diff := 0
	for i := range orig {
		if half[i] != orig[i] {
			diff++
		}
	}
	frac := float64(diff) / float64(len(orig))
	if frac < 0.35 || frac > 0.6 {
		t.Errorf("rate 0.5 changed %.2f of residues", frac)
	}
	// Input untouched, output canonical.
	for _, r := range full {
		if r >= 20 {
			t.Fatal("non-canonical residue after mutation")
		}
	}
}
