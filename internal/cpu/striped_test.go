package cpu

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/satmath"
)

// stripedSizes covers every one-stripe and partial-last-stripe case
// for both lane counts (8 and 16), the benchmark's model sizes, and
// the largest model of the paper's sweep.
var stripedSizes = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 257, 400, 1056}

type stripedTarget struct {
	name string
	dsq  []byte
}

// stripedTargets draws the targets the differential tests score
// against h: background sequences, one planted homolog, and a tandem
// repeat of homologs long enough to saturate either filter.
func stripedTargets(rng *rand.Rand, h *hmm.Plan7) []stripedTarget {
	homolog := func() []byte {
		if s := h.SampleSequence(rng); len(s) > 0 {
			return s
		}
		return h.Consensus()
	}
	planted := append(randomSeq(rng, 30), homolog()...)
	planted = append(planted, randomSeq(rng, 30)...)
	var tandem []byte
	for len(tandem) < max(1200, 3*h.M) {
		tandem = append(tandem, homolog()...)
	}
	return []stripedTarget{
		{"background short", randomSeq(rng, 1+rng.Intn(40))},
		{"background", randomSeq(rng, 100+rng.Intn(300))},
		{"planted homolog", planted},
		{"tandem homologs", tandem},
	}
}

// TestStripedMSVMatchesScalarExactly is the core equivalence test: the
// striped engine must reproduce the golden scalar filter bit for bit
// across model sizes that exercise every striping edge case, on
// targets that end both ways — a finite score and the per-row overflow
// exit.
func TestStripedMSVMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	finite, overflowed := 0, 0
	for _, m := range stripedSizes {
		h, err := hmm.Random("msv", m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(int64(m))))
		if err != nil {
			t.Fatal(err)
		}
		mp := profile.NewMSVProfile(profile.Config(h))
		eng := NewMSVEngine(mp)
		for _, tg := range stripedTargets(rng, h) {
			mp.SetLength(len(tg.dsq))
			want := MSVFilterScalar(mp, tg.dsq)
			if got := eng.Filter(tg.dsq); got != want {
				t.Fatalf("M=%d %s (L=%d): striped %+v != scalar %+v", m, tg.name, len(tg.dsq), got, want)
			}
			if want.Overflowed {
				overflowed++
			} else {
				finite++
			}
		}
	}
	if finite == 0 || overflowed == 0 {
		t.Errorf("%d finite scores, %d overflow exits: both ends must be reached", finite, overflowed)
	}
}

// TestStripedMSVArbitraryProfile: the engine keeps its DP row with the
// bias pre-added, which is exact for any bias and cost table, not only
// the ones profile.NewMSVProfile derives (bias at most ~20, so that
// xB + bias never saturates). Hand-made profiles with large biases and
// random costs reach the saturating xB term and rows one short of the
// overflow threshold.
func TestStripedMSVArbitraryProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	finite, overflowed := 0, 0
	for trial := 0; trial < 400; trial++ {
		m := 1 + rng.Intn(70)
		mp := &profile.MSVProfile{
			M:    m,
			Bias: []uint8{0, 19, 66, 128, 200, 254, 255}[rng.Intn(7)],
			TBM:  uint8(rng.Intn(60)),
			TEC:  uint8(rng.Intn(6)),
			TJB:  uint8(rng.Intn(30)),
		}
		// Costs near the bias keep rows alive without growth; a cheap
		// column now and then pushes them up towards the threshold.
		mp.MatCost = make([][]uint8, abc.SizeAll())
		for r := range mp.MatCost {
			row := make([]uint8, m+1)
			row[0] = 255
			for k := 1; k <= m; k++ {
				c := int(mp.Bias) + rng.Intn(9) - 2
				if rng.Intn(8) == 0 {
					c = rng.Intn(256)
				}
				row[k] = uint8(min(max(c, 0), 255))
			}
			mp.MatCost[r] = row
		}
		dsq := randomSeq(rng, 1+rng.Intn(120))
		want := MSVFilterScalar(mp, dsq)
		if got := NewMSVEngine(mp).Filter(dsq); got != want {
			t.Fatalf("trial %d (M=%d bias=%d L=%d): striped %+v != scalar %+v", trial, m, mp.Bias, len(dsq), got, want)
		}
		if want.Overflowed {
			overflowed++
		} else {
			finite++
		}
	}
	if finite < 40 || overflowed < 40 {
		t.Errorf("%d finite scores, %d overflow exits: the profiles should split between the two", finite, overflowed)
	}
}

// TestStripedMSVTable holds the engine to MSVFilterScalar at the
// paper's model sizes and the stripe edges, on an empty target, one
// residue of every code, all the codes in one target, a planted
// homolog cut to overflow on its last row, and a profile whose first
// row already overflows. A code at or past the cost table's rows
// panics, as indexing MatCost does in the scalar filter.
func TestStripedMSVTable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	every := make([]byte, abc.SizeAll())
	for r := range every {
		every[r] = byte(r)
	}
	lastRows := 0
	for _, m := range []int{1, 15, 16, 17, 48, 100, 400, 1056} {
		h, err := hmm.Random("msv", m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(int64(m))))
		if err != nil {
			t.Fatal(err)
		}
		mp := profile.NewMSVProfile(profile.Config(h))
		eng := NewMSVEngine(mp)
		// Lane l of stripe qi holds node qi + l*Q + 1, cost 255 past M.
		q := profile.StripedSegments(m, MSVWidth)
		if len(eng.rsc) != 2*q*len(mp.MatCost) {
			t.Fatalf("M=%d: %d cost words, want %d", m, len(eng.rsc), 2*q*len(mp.MatCost))
		}
		lanes := make([]byte, MSVWidth*q)
		for r, costs := range mp.MatCost {
			satmath.UnpackLanes(lanes, eng.rsc[2*q*r:2*q*(r+1)])
			for i, c := range lanes {
				want := uint8(255)
				if k := i/MSVWidth + i%MSVWidth*q + 1; k <= m {
					want = costs[k]
				}
				if c != want {
					t.Fatalf("M=%d: code %d, stripe %d, lane %d costs %d, want %d", m, r, i/MSVWidth, i%MSVWidth, c, want)
				}
			}
		}
		check := func(what string, mp *profile.MSVProfile, eng *MSVEngine, dsq []byte) FilterResult {
			t.Helper()
			want := MSVFilterScalar(mp, dsq)
			if got := eng.Filter(dsq); got != want {
				t.Fatalf("M=%d %s (L=%d): striped %+v != scalar %+v", m, what, len(dsq), got, want)
			}
			return want
		}
		check("empty", mp, eng, nil)
		for _, r := range every {
			check(fmt.Sprintf("code %d", r), mp, eng, []byte{r})
		}
		check("every code", mp, eng, every)

		planted := randomSeq(rng, 30)
		for len(planted) < 30+max(600, 4*m) {
			planted = append(planted, h.Consensus()...)
		}
		for l := 1; l <= len(planted); l++ {
			if res := check("planted homolog", mp, eng, planted[:l]); res.Overflowed {
				if l > 1 && MSVFilterScalar(mp, planted[:l-1]).Overflowed {
					t.Fatalf("M=%d: the planted homolog's first overflowing prefix is not %d residues", m, l)
				}
				lastRows++
				break
			}
		}

		hot := *mp
		hot.Bias = 200 // the threshold is 55: the first row reaches it
		if res := check("first row", &hot, NewMSVEngine(&hot), planted[:1]); !res.Overflowed {
			t.Fatalf("M=%d: bias 200 did not overflow on the first row: %+v", m, res)
		}

		bad := slices.Clone(planted[:40])
		bad[20] = byte(len(mp.MatCost))
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "past the cost table") {
					t.Errorf("M=%d: code %d recovered %q, want the cost-table panic", m, bad[20], r)
				}
			}()
			eng.Filter(bad)
		}()
	}
	if lastRows < 6 {
		t.Errorf("%d planted homologs overflowed, want at least 6 of 8", lastRows)
	}
}

// TestStripedVitMatchesScalarExactly does the same for the Viterbi
// filter, whose lazy-F loop is the risky part: besides finite scores
// it must reach at least one iterated lazy-F pass and the
// end-of-sequence overflow return. With the multihit exit that
// profile.Config sets (E->C at ln 1/2) xC tops out 104 units under the
// ceiling and that return cannot fire, so the tandem target is also
// scored through a unihit exit (E->C free, no J), which a saturated
// row does carry to the ceiling.
func TestStripedVitMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	finite, overflowed := 0, 0
	var total LazyFInfo
	for _, m := range stripedSizes {
		h, err := hmm.Random("vit", m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(int64(100+m))))
		if err != nil {
			t.Fatal(err)
		}
		vp := profile.NewVitProfile(profile.Config(h))
		unihit := *vp
		unihit.TEC, unihit.TEJ = 0, satmath.NegInf16
		for _, tg := range stripedTargets(rng, h) {
			for _, vp := range []*profile.VitProfile{vp, &unihit} {
				vp.SetLength(len(tg.dsq))
				want := VitFilterScalar(vp, tg.dsq)
				got, info := NewVitEngine(vp).FilterWithStats(tg.dsq)
				if got != want {
					t.Fatalf("M=%d %s (L=%d, E->C %d): striped %+v != scalar %+v (lazy-f %+v)",
						m, tg.name, len(tg.dsq), vp.TEC, got, want, info)
				}
				if info.Rows != len(tg.dsq) {
					t.Fatalf("M=%d %s: %d rows counted over %d residues", m, tg.name, info.Rows, len(tg.dsq))
				}
				if want.Overflowed {
					overflowed++
				} else {
					finite++
				}
				total.RowsIterated += info.RowsIterated
				total.IteratedPasses += info.IteratedPasses
			}
		}
	}
	if finite == 0 || overflowed == 0 {
		t.Errorf("%d finite scores, %d overflow returns: both ends must be reached", finite, overflowed)
	}
	if total.RowsIterated == 0 || total.IteratedPasses < total.RowsIterated {
		t.Errorf("lazy-F never iterated: %+v", total)
	}
}

// TestLazyFGoldenCounts pins FilterWithStats counts taken from the
// per-lane engine this one replaced: lane count and striping are
// unchanged, so the lazy-F loop must stop on exactly the same stripe.
func TestLazyFGoldenCounts(t *testing.T) {
	gappy := hmm.BuildParams{MatchIdentity: 0.7, GapOpen: 0.15, GapExtend: 0.9}
	for _, c := range []struct {
		m      int
		params hmm.BuildParams
		want   LazyFInfo
	}{
		{100, hmm.DefaultBuildParams(), LazyFInfo{Rows: 1764, RowsIterated: 229, IteratedPasses: 229}},
		{400, hmm.DefaultBuildParams(), LazyFInfo{Rows: 2369}},
		{9, gappy, LazyFInfo{Rows: 1660, RowsIterated: 1129, IteratedPasses: 1880}},
		{129, gappy, LazyFInfo{Rows: 1864, RowsIterated: 1555, IteratedPasses: 2597}},
	} {
		rng := rand.New(rand.NewSource(int64(c.m)))
		h, err := hmm.Random("golden", c.m, abc, c.params, rng)
		if err != nil {
			t.Fatal(err)
		}
		vp := profile.NewVitProfile(profile.Config(h))
		eng := NewVitEngine(vp)
		var got LazyFInfo
		for _, tg := range stripedTargets(rng, h) {
			vp.SetLength(len(tg.dsq))
			_, info := eng.FilterWithStats(tg.dsq)
			got.Rows += info.Rows
			got.RowsIterated += info.RowsIterated
			got.IteratedPasses += info.IteratedPasses
		}
		if got != c.want {
			t.Errorf("M=%d gap-open %.2f: lazy-F %+v, want %+v", c.m, c.params.GapOpen, got, c.want)
		}
	}
}

// FuzzStripedMatchesScalar draws a model from (seed, m) and reads the
// target's digital codes off the fuzzed bytes; both striped engines
// must agree with their scalar oracles.
func FuzzStripedMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{})
	f.Add(int64(2), uint16(0), []byte{3})
	f.Add(int64(3), uint16(7), []byte("ACDEFGHIKLMNPQRSTVWY"))
	f.Add(int64(4), uint16(8), []byte("\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c"))
	f.Add(int64(5), uint16(16), []byte("\x00\x1a\x00\x1a\x05\x05\x05"))
	f.Add(int64(6), uint16(99), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Fuzz(func(t *testing.T, seed int64, m uint16, raw []byte) {
		if len(raw) > 2048 {
			raw = raw[:2048]
		}
		h, err := hmm.Random("fuzz", 1+int(m%300), abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		p := profile.Config(h)
		p.SetLength(len(raw))
		mp, vp := profile.NewMSVProfile(p), profile.NewVitProfile(p)
		dsq := make([]byte, len(raw))
		for i, b := range raw {
			dsq[i] = b % byte(abc.SizeAll())
		}
		if got, want := NewMSVEngine(mp).Filter(dsq), MSVFilterScalar(mp, dsq); got != want {
			t.Errorf("MSV M=%d: striped %+v != scalar %+v", h.M, got, want)
		}
		if got, want := NewVitEngine(vp).Filter(dsq), VitFilterScalar(vp, dsq); got != want {
			t.Errorf("Viterbi M=%d: striped %+v != scalar %+v", h.M, got, want)
		}
	})
}

// TestStripedEnginesAllocations: a reused engine scores a sequence
// without allocating, and building one costs no more allocations than
// the per-lane engines did (62 and 41 for the 29-code alphabet: the
// residue rows, their index, the transition and DP rows and the
// engine). MSV fills one flat cost table straight from the profile, so
// it makes exactly three: the engine, the table and the DP rows.
func TestStripedEnginesAllocations(t *testing.T) {
	_, mp, vp := buildProfiles(t, 100, 200, 70)
	dsq := randomSeq(rand.New(rand.NewSource(71)), 200)
	msv, vit := NewMSVEngine(mp), NewVitEngine(vp)
	if n := testing.AllocsPerRun(20, func() { msv.Filter(dsq) }); n != 0 {
		t.Errorf("MSVEngine.Filter allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(20, func() { vit.Filter(dsq) }); n != 0 {
		t.Errorf("VitEngine.Filter allocates %v times per call", n)
	}
	rows := float64(abc.SizeAll())
	if n := testing.AllocsPerRun(5, func() { NewMSVEngine(mp) }); n != 3 {
		t.Errorf("NewMSVEngine allocates %v times, want 3", n)
	}
	if n, max := testing.AllocsPerRun(5, func() { NewVitEngine(vp) }), rows+12; n > max {
		t.Errorf("NewVitEngine allocates %v times, %v before", n, max)
	}
}
