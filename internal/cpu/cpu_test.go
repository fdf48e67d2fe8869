package cpu

import (
	"math"
	"math/rand"
	"testing"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/refimpl"
	"hmmer3gpu/internal/satmath"
	"hmmer3gpu/internal/seq"
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

func buildProfiles(t testing.TB, m, l int, seed int64) (*profile.Profile, *profile.MSVProfile, *profile.VitProfile) {
	t.Helper()
	h, err := hmm.Random("cpu", m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	p.SetLength(l)
	return p, profile.NewMSVProfile(p), profile.NewVitProfile(p)
}

// TestStripedVitGappyModels stresses lazy-F with models whose D-D
// paths are actually taken (high gap-open/extend probabilities).
func TestStripedVitGappyModels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	params := hmm.BuildParams{MatchIdentity: 0.7, GapOpen: 0.15, GapExtend: 0.9}
	for _, m := range []int{24, 40, 129} {
		h, err := hmm.Random("gappy", m, abc, params, rng)
		if err != nil {
			t.Fatal(err)
		}
		p := profile.Config(h)
		p.SetLength(120)
		vp := profile.NewVitProfile(p)
		eng := NewVitEngine(vp)
		for trial := 0; trial < 10; trial++ {
			L := 20 + rng.Intn(200)
			vp.SetLength(L)
			dsq := randomSeq(rng, L)
			want := VitFilterScalar(vp, dsq)
			got, info := eng.FilterWithStats(dsq)
			if got != want {
				t.Fatalf("M=%d L=%d: striped %+v != scalar %+v (lazy-f %+v)", m, L, got, want, info)
			}
		}
		// Also score a sampled homolog — gappy homologs traverse D
		// states heavily.
		homolog := h.SampleSequence(rng)
		if len(homolog) == 0 {
			t.Fatal("empty homolog")
		}
		vp.SetLength(len(homolog))
		want := VitFilterScalar(vp, homolog)
		if got := eng.Filter(homolog); got != want {
			t.Fatalf("M=%d homolog: striped %+v != scalar %+v", m, got, want)
		}
	}
}

// TestMSVFilterApproximatesReference checks the quantised filter
// against the full-precision generic MSV within a quantisation-and-
// length-model tolerance.
func TestMSVFilterApproximatesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		m := 10 + rng.Intn(120)
		L := 60 + rng.Intn(340)
		p, mp, _ := buildProfiles(t, m, L, int64(trial+40))
		dsq := randomSeq(rng, L)
		res := MSVFilterScalar(mp, dsq)
		if res.Overflowed {
			continue
		}
		ref := refimpl.MSV(p, dsq)
		// Tolerance: per-cell quantisation noise (empirically well under
		// this) plus the flat -3.0 nat loop-cost correction error.
		tol := 1.0 + math.Abs(float64(L)*p.TLoop+3.0)
		if math.Abs(res.Score-ref) > tol {
			t.Errorf("trial %d (M=%d L=%d): filter %.3f vs reference %.3f (tol %.3f)",
				trial, m, L, res.Score, ref, tol)
		}
	}
}

// TestVitFilterApproximatesReference: the 16-bit filter has much finer
// resolution, so the tolerance is tighter.
func TestVitFilterApproximatesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		m := 10 + rng.Intn(120)
		L := 60 + rng.Intn(340)
		p, _, vp := buildProfiles(t, m, L, int64(trial+80))
		dsq := randomSeq(rng, L)
		res := VitFilterScalar(vp, dsq)
		if res.Overflowed {
			continue
		}
		ref := refimpl.Viterbi(p, dsq)
		// The flat -3.0 nat loop correction (HMMER's own heuristic)
		// overcorrects by the core-path share of L*TLoop; 1 nat covers
		// it comfortably while still catching structural bugs.
		tol := 1.0 + math.Abs(float64(L)*p.TLoop+3.0)
		if math.Abs(res.Score-ref) > tol {
			t.Errorf("trial %d (M=%d L=%d): filter %.4f vs reference %.4f (tol %.3f)",
				trial, m, L, res.Score, ref, tol)
		}
	}
}

// TestMSVOverflowOnStrongHit: a long, perfect repeat of the consensus
// must drive the 8-bit score into saturation, which the filter must
// report as +inf (pass), never as a bogus finite score.
func TestMSVOverflowOnStrongHit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cons := randomSeq(rng, 60)
	h, err := hmm.FromConsensus("hit", cons, abc,
		hmm.BuildParams{MatchIdentity: 0.9, GapOpen: 0.01, GapExtend: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	var hit []byte
	for r := 0; r < 20; r++ {
		hit = append(hit, cons...)
	}
	p.SetLength(len(hit))
	mp := profile.NewMSVProfile(p)
	res := MSVFilterScalar(mp, hit)
	if !res.Overflowed || !math.IsInf(res.Score, 1) {
		t.Errorf("expected overflow on strong hit, got %+v", res)
	}
	if got := NewMSVEngine(mp).Filter(hit); got != res {
		t.Errorf("striped overflow mismatch: %+v vs %+v", got, res)
	}
}

func TestHomologVsRandomSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h, err := hmm.Random("sep", 90, abc, hmm.DefaultBuildParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	homolog := h.SampleSequence(rng)
	random := randomSeq(rng, len(homolog))
	p.SetLength(len(homolog))
	mp, vp := profile.NewMSVProfile(p), profile.NewVitProfile(p)

	hm, rm := MSVFilterScalar(mp, homolog), MSVFilterScalar(mp, random)
	hv, rv := VitFilterScalar(vp, homolog), VitFilterScalar(vp, random)
	if !hm.Overflowed && hm.Score < rm.Score+3 {
		t.Errorf("MSV separation too small: %+v vs %+v", hm, rm)
	}
	if !hv.Overflowed && hv.Score < rv.Score+3 {
		t.Errorf("Viterbi separation too small: %+v vs %+v", hv, rv)
	}
}

func TestEmptySequence(t *testing.T) {
	_, mp, vp := buildProfiles(t, 20, 100, 8)
	if res := MSVFilterScalar(mp, nil); math.IsInf(res.Score, 1) || math.IsNaN(res.Score) {
		t.Errorf("MSV on empty seq: %+v", res)
	}
	if res := VitFilterScalar(vp, nil); !math.IsInf(res.Score, 0) && math.IsNaN(res.Score) {
		t.Errorf("Viterbi on empty seq: %+v", res)
	}
	if got, want := NewMSVEngine(mp).Filter(nil), MSVFilterScalar(mp, nil); got != want {
		t.Errorf("striped MSV empty mismatch")
	}
	if got, want := NewVitEngine(vp).Filter(nil), VitFilterScalar(vp, nil); got != want {
		t.Errorf("striped Vit empty mismatch")
	}
}

func TestDegenerateResiduesScored(t *testing.T) {
	_, mp, vp := buildProfiles(t, 30, 100, 9)
	rng := rand.New(rand.NewSource(10))
	dsq := randomSeq(rng, 100)
	for i := 0; i < 10; i++ {
		dsq[rng.Intn(len(dsq))] = byte(20 + rng.Intn(6)) // B J Z O U X
	}
	sm := MSVFilterScalar(mp, dsq)
	sv := VitFilterScalar(vp, dsq)
	if math.IsNaN(sm.Score) || math.IsNaN(sv.Score) {
		t.Error("degenerate residues produced NaN")
	}
	if got := NewMSVEngine(mp).Filter(dsq); got != sm {
		t.Error("striped MSV degenerate mismatch")
	}
	if got := NewVitEngine(vp).Filter(dsq); got != sv {
		t.Error("striped Vit degenerate mismatch")
	}
}

func TestLazyFRarelyIterates(t *testing.T) {
	// For a typical model the iterated lazy-F passes should be a small
	// fraction of rows — the premise of the paper's §III-B.
	rng := rand.New(rand.NewSource(11))
	_, _, vp := buildProfiles(t, 100, 200, 12)
	eng := NewVitEngine(vp)
	var total LazyFInfo
	for trial := 0; trial < 20; trial++ {
		dsq := randomSeq(rng, 200)
		_, info := eng.FilterWithStats(dsq)
		total.Rows += info.Rows
		total.RowsIterated += info.RowsIterated
		total.IteratedPasses += info.IteratedPasses
	}
	if total.Rows == 0 {
		t.Fatal("no rows processed")
	}
	frac := float64(total.RowsIterated) / float64(total.Rows)
	if frac > 0.2 {
		t.Errorf("lazy-F iterated on %.1f%% of rows; expected it to be rare", frac*100)
	}
}

func TestEngineParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	_, mp, vp := buildProfiles(t, 64, 150, 14)
	db := seq.NewDatabase("par")
	for i := 0; i < 200; i++ {
		db.Add(&seq.Sequence{Name: "s", Residues: randomSeq(rng, 30+rng.Intn(250))})
	}
	serialM := Engine{Workers: 1}.MSVAll(mp, db)
	parM := Engine{Workers: 8}.MSVAll(mp, db)
	serialV := Engine{Workers: 1}.ViterbiAll(vp, db)
	parV := Engine{Workers: 8}.ViterbiAll(vp, db)
	for i := range serialM {
		if serialM[i] != parM[i] {
			t.Fatalf("MSV seq %d: parallel %+v != serial %+v", i, parM[i], serialM[i])
		}
		if serialV[i] != parV[i] {
			t.Fatalf("Vit seq %d: parallel %+v != serial %+v", i, parV[i], serialV[i])
		}
	}
}

// TestVecHelpers: the two-word lane shift, including the crossing from
// the top lane of the low word into the bottom lane of the high word.
// (MSV's byte-lane shift is satmath.MSVFilterU8's, held to its generic
// loop there.)
func TestVecHelpers(t *testing.T) {
	neg := satmath.NegInf16
	v0, v1 := shiftI16(0x8000_0000_0003_fffb, 0x0000_0001_0002_0007, neg) // -5 3 0 -32768 | 7 2 1 0
	if v0 != 0x0000_0003_fffb_8000 || v1 != 0x0001_0002_0007_8000 {
		t.Errorf("shiftI16 = %#016x %#016x", v0, v1)
	}
}

func TestEngineEmptyDatabase(t *testing.T) {
	_, mp, vp := buildProfiles(t, 20, 100, 60)
	db := seq.NewDatabase("empty")
	if got := (Engine{}).MSVAll(mp, db); len(got) != 0 {
		t.Errorf("MSVAll on empty db returned %d results", len(got))
	}
	if got := (Engine{}).ViterbiAll(vp, db); len(got) != 0 {
		t.Errorf("ViterbiAll on empty db returned %d results", len(got))
	}
}

func TestScoresInvariantUnderDatabasePermutation(t *testing.T) {
	// Scoring is per-sequence: permuting the database must permute the
	// results identically (no cross-sequence state leaks through the
	// reused engine buffers).
	rng := rand.New(rand.NewSource(61))
	_, mp, vp := buildProfiles(t, 48, 150, 62)
	db := seq.NewDatabase("perm")
	for i := 0; i < 60; i++ {
		db.Add(&seq.Sequence{Name: "s", Residues: randomSeq(rng, 20+rng.Intn(200))})
	}
	fwd := Engine{Workers: 1}.MSVAll(mp, db)
	fwdV := Engine{Workers: 1}.ViterbiAll(vp, db)

	perm := rng.Perm(db.NumSeqs())
	shuffled := seq.NewDatabase("perm2")
	for _, p := range perm {
		shuffled.Add(db.Seqs[p])
	}
	got := Engine{Workers: 1}.MSVAll(mp, shuffled)
	gotV := Engine{Workers: 1}.ViterbiAll(vp, shuffled)
	for i, p := range perm {
		if got[i] != fwd[p] || gotV[i] != fwdV[p] {
			t.Fatalf("permutation changed scores at %d", i)
		}
	}
}

func TestEngineFewerTasksThanWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	_, mp, _ := buildProfiles(t, 20, 100, 64)
	db := seq.NewDatabase("small")
	for i := 0; i < 3; i++ {
		db.Add(&seq.Sequence{Name: "s", Residues: randomSeq(rng, 50)})
	}
	got := Engine{Workers: 16}.MSVAll(mp, db)
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	for i, s := range db.Seqs {
		if want := MSVFilterScalar(mp, s.Residues); got[i] != want {
			t.Fatalf("seq %d mismatch", i)
		}
	}
}
