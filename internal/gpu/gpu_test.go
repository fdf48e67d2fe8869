package gpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
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

func testDB(t testing.TB, rng *rand.Rand, n, maxLen int) *seq.Database {
	t.Helper()
	db := seq.NewDatabase("gputest")
	for i := 0; i < n; i++ {
		db.Add(&seq.Sequence{Name: "s", Residues: randomSeq(rng, 1+rng.Intn(maxLen))})
	}
	return db
}

func buildProfiles(t testing.TB, m, l int, seed int64) (*profile.MSVProfile, *profile.VitProfile) {
	t.Helper()
	h, err := hmm.Random("gpu", m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	p.SetLength(l)
	return profile.NewMSVProfile(p), profile.NewVitProfile(p)
}

// TestMSVKernelMatchesGoldenExactly: the central claim — the warp-
// synchronous kernel, under every architecture and memory
// configuration, reproduces the scalar golden filter bit for bit.
func TestMSVKernelMatchesGoldenExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := []simt.DeviceSpec{simt.TeslaK40(), simt.GTX580()}
	for _, m := range []int{1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 257} {
		mp, _ := buildProfiles(t, m, 180, int64(m))
		db := testDB(t, rng, 40, 300)
		want := make([]cpu.FilterResult, db.NumSeqs())
		for i, s := range db.Seqs {
			want[i] = cpu.MSVFilterScalar(mp, s.Residues)
		}
		for _, spec := range specs {
			for _, mem := range []MemConfig{MemShared, MemGlobal} {
				dev := simt.NewDevice(spec)
				ddb := UploadDB(dev, db)
				dp := UploadMSVProfile(dev, mp)
				s := &Searcher{Dev: dev, Mem: mem}
				rep, err := s.MSVSearch(dp, ddb)
				if err != nil {
					t.Fatalf("M=%d %s/%s: %v", m, spec.Arch, mem, err)
				}
				for i := range want {
					if rep.Results[i] != want[i] {
						t.Fatalf("M=%d %s/%s seq %d: gpu %+v != golden %+v",
							m, spec.Arch, mem, i, rep.Results[i], want[i])
					}
				}
			}
		}
	}
}

// TestVitKernelMatchesGoldenExactly does the same for the P7Viterbi
// kernel, whose parallel Lazy-F is the subtle part.
func TestVitKernelMatchesGoldenExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	specs := []simt.DeviceSpec{simt.TeslaK40(), simt.GTX580()}
	for _, m := range []int{1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 120, 257} {
		_, vp := buildProfiles(t, m, 150, int64(50+m))
		db := testDB(t, rng, 30, 250)
		want := make([]cpu.FilterResult, db.NumSeqs())
		for i, s := range db.Seqs {
			want[i] = cpu.VitFilterScalar(vp, s.Residues)
		}
		for _, spec := range specs {
			for _, mem := range []MemConfig{MemShared, MemGlobal} {
				dev := simt.NewDevice(spec)
				ddb := UploadDB(dev, db)
				dp := UploadVitProfile(dev, vp)
				s := &Searcher{Dev: dev, Mem: mem}
				rep, err := s.ViterbiSearch(dp, ddb)
				if err != nil {
					t.Fatalf("M=%d %s/%s: %v", m, spec.Arch, mem, err)
				}
				for i := range want {
					if rep.Results[i] != want[i] {
						t.Fatalf("M=%d %s/%s seq %d: gpu %+v != golden %+v",
							m, spec.Arch, mem, i, rep.Results[i], want[i])
					}
				}
			}
		}
	}
}

// TestVitKernelGappyModels drives the parallel Lazy-F hard: with heavy
// gap probabilities the D-D chains actually propagate across lanes and
// chunks.
func TestVitKernelGappyModels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	params := hmm.BuildParams{MatchIdentity: 0.7, GapOpen: 0.2, GapExtend: 0.9}
	for _, m := range []int{40, 100} {
		h, err := hmm.Random("gappy", m, abc, params, rng)
		if err != nil {
			t.Fatal(err)
		}
		p := profile.Config(h)
		p.SetLength(150)
		vp := profile.NewVitProfile(p)
		db := testDB(t, rng, 25, 200)
		dev := simt.NewDevice(simt.TeslaK40())
		ddb := UploadDB(dev, db)
		dp := UploadVitProfile(dev, vp)
		s := &Searcher{Dev: dev, Mem: MemShared}
		rep, err := s.ViterbiSearch(dp, ddb)
		if err != nil {
			t.Fatal(err)
		}
		for i, sq := range db.Seqs {
			want := cpu.VitFilterScalar(vp, sq.Residues)
			if rep.Results[i] != want {
				t.Fatalf("M=%d seq %d: gpu %+v != golden %+v", m, i, rep.Results[i], want)
			}
		}
		if rep.LazyF.Iterations == 0 {
			t.Errorf("M=%d: gappy model should trigger lazy-F iterations", m)
		}
	}
}

func TestLazyFRareOnTypicalModels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, vp := buildProfiles(t, 100, 200, 5)
	db := testDB(t, rng, 30, 250)
	dev := simt.NewDevice(simt.TeslaK40())
	ddb := UploadDB(dev, db)
	dp := UploadVitProfile(dev, vp)
	s := &Searcher{Dev: dev}
	rep, err := s.ViterbiSearch(dp, ddb)
	if err != nil {
		t.Fatal(err)
	}
	// Each lazy-F iteration propagates D-D chains one lane further
	// within a 32-position chunk; for a typical (rarely-deleting)
	// model the chains are short, so the average iteration count per
	// chunk must stay far below the 32-iteration worst case — the
	// premise of the paper's §III-B.
	chunks := float64(ddb.TotalResidues) * math.Ceil(float64(dp.VP.M)/32.0)
	avg := float64(rep.LazyF.Iterations) / chunks
	if avg > 5 {
		t.Errorf("lazy-F averaged %.2f iterations/chunk; expected short D-D chains", avg)
	}
}

func TestDegenerateAndRemappedResidues(t *testing.T) {
	// Sequences containing every degenerate code must score identically
	// on GPU (with its 24-row remapped alphabet) and the scalar golden
	// filter (29-row host alphabet).
	rng := rand.New(rand.NewSource(6))
	mp, vp := buildProfiles(t, 50, 120, 7)
	db := seq.NewDatabase("degen")
	for i := 0; i < 10; i++ {
		res := randomSeq(rng, 120)
		for j := 0; j < 15; j++ {
			res[rng.Intn(len(res))] = byte(20 + rng.Intn(6)) // B J Z O U X
		}
		db.Add(&seq.Sequence{Name: "d", Residues: res})
	}
	dev := simt.NewDevice(simt.TeslaK40())
	ddb := UploadDB(dev, db)
	s := &Searcher{Dev: dev}
	mrep, err := s.MSVSearch(UploadMSVProfile(dev, mp), ddb)
	if err != nil {
		t.Fatal(err)
	}
	vrep, err := s.ViterbiSearch(UploadVitProfile(dev, vp), ddb)
	if err != nil {
		t.Fatal(err)
	}
	for i, sq := range db.Seqs {
		if want := cpu.MSVFilterScalar(mp, sq.Residues); mrep.Results[i] != want {
			t.Errorf("MSV seq %d: %+v != %+v", i, mrep.Results[i], want)
		}
		if want := cpu.VitFilterScalar(vp, sq.Residues); vrep.Results[i] != want {
			t.Errorf("Vit seq %d: %+v != %+v", i, vrep.Results[i], want)
		}
	}
}

func TestOverflowPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cons := randomSeq(rng, 60)
	h, err := hmm.FromConsensus("hot", cons, abc,
		hmm.BuildParams{MatchIdentity: 0.9, GapOpen: 0.01, GapExtend: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	var hit []byte
	for i := 0; i < 20; i++ {
		hit = append(hit, cons...)
	}
	p.SetLength(len(hit))
	mp := profile.NewMSVProfile(p)
	db := seq.NewDatabase("hot")
	db.Add(&seq.Sequence{Name: "hit", Residues: hit})
	dev := simt.NewDevice(simt.TeslaK40())
	ddb := UploadDB(dev, db)
	s := &Searcher{Dev: dev}
	rep, err := s.MSVSearch(UploadMSVProfile(dev, mp), ddb)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Results[0].Overflowed || !math.IsInf(rep.Results[0].Score, 1) {
		t.Errorf("expected overflow pass-through, got %+v", rep.Results[0])
	}
}

func TestPackingReducesGlobalTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mp, _ := buildProfiles(t, 64, 200, 10)
	db := testDB(t, rng, 30, 300)
	dev1 := simt.NewDevice(simt.TeslaK40())
	ddb1 := UploadDB(dev1, db)
	packed, err := (&Searcher{Dev: dev1, Mem: MemShared}).MSVSearch(UploadMSVProfile(dev1, mp), ddb1)
	if err != nil {
		t.Fatal(err)
	}
	dev2 := simt.NewDevice(simt.TeslaK40())
	ddb2 := UploadDB(dev2, db)
	unpacked, err := (&Searcher{Dev: dev2, Mem: MemShared, DisablePacking: true}).MSVSearch(UploadMSVProfile(dev2, mp), ddb2)
	if err != nil {
		t.Fatal(err)
	}
	// Scores unchanged...
	for i := range packed.Results {
		if packed.Results[i] != unpacked.Results[i] {
			t.Fatalf("packing changed scores at %d", i)
		}
	}
	// ...but sequence-fetch traffic drops ~6x. Compare total load
	// transactions net of the (identical) model prologue and emission
	// metering by using the difference between the two runs.
	p, u := packed.Launch.Stats.GlobalLoadTransactions, unpacked.Launch.Stats.GlobalLoadTransactions
	if p >= u {
		t.Fatalf("packed %d transactions >= unpacked %d", p, u)
	}
	ratio := float64(u-p) / float64(ddb1.TotalResidues)
	// Unpacked: 1 transaction per residue; packed: 1 per 6 -> the
	// difference should be ~5/6 of a transaction per residue.
	if ratio < 0.7 || ratio > 0.95 {
		t.Errorf("packing saved %.2f transactions/residue, want ~0.83", ratio)
	}
}

func TestMSVKernelConflictAndRaceFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mp, _ := buildProfiles(t, 96, 150, 12)
	db := testDB(t, rng, 20, 200)
	dev := simt.NewDevice(simt.TeslaK40())
	ddb := UploadDB(dev, db)
	s := &Searcher{Dev: dev, Mem: MemGlobal, DetectRaces: true}
	rep, err := s.MSVSearch(UploadMSVProfile(dev, mp), ddb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launch.Stats.BankConflictReplays != 0 {
		t.Errorf("warp-synchronous MSV kernel caused %d bank-conflict replays; the paper's access pattern is conflict-free",
			rep.Launch.Stats.BankConflictReplays)
	}
	if rep.Launch.Stats.SharedRaces != 0 {
		t.Errorf("warp-synchronous kernel reported %d races; warps own disjoint row buffers",
			rep.Launch.Stats.SharedRaces)
	}
	if rep.Launch.Stats.Syncs != 0 {
		t.Errorf("warp-synchronous kernel executed %d __syncthreads; the design eliminates them all",
			rep.Launch.Stats.Syncs)
	}
}

// kernelNames records the kernel name of every launch a device
// profiles.
type kernelNames []string

func (*kernelNames) SamplePeriod() int                { return 1 }
func (k *kernelNames) OnLaunch(p *simt.LaunchProfile) { *k = append(*k, p.Kernel) }

func TestSyncedBaselineMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mp, _ := buildProfiles(t, 70, 150, 14)
	db := testDB(t, rng, 15, 200)
	dev := simt.NewDevice(simt.TeslaK40())
	var names kernelNames
	dev.Profiler = &names
	ddb := UploadDB(dev, db)
	s := &Searcher{Dev: dev}
	rep, err := s.MSVSearchSynced(UploadMSVProfile(dev, mp), ddb, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, sq := range db.Seqs {
		want := cpu.MSVFilterScalar(mp, sq.Residues)
		if rep.Results[i] != want {
			t.Fatalf("synced baseline seq %d: %+v != %+v", i, rep.Results[i], want)
		}
	}
	if rep.Launch.Stats.Syncs == 0 {
		t.Error("synced baseline reported no barriers")
	}
	if rep.Launch.Stats.SharedRaces != 0 {
		t.Errorf("synced baseline raced: %d", rep.Launch.Stats.SharedRaces)
	}
	if len(names) != 1 || names[0] != "msv_synced" {
		t.Errorf("synced baseline launches %q, want [msv_synced]", names)
	}
}

func TestUnsyncedBaselineRaces(t *testing.T) {
	// Eliding the barriers reproduces the Figure 4 hazard: the race
	// tracker must flag cross-warp conflicts. A block's warps run one
	// at a time, so the racy launch still reports the same races and
	// scores however many host workers run it, and on every run.
	rng := rand.New(rand.NewSource(15))
	mp, _ := buildProfiles(t, 70, 150, 16)
	db := testDB(t, rng, 10, 200)
	dev := simt.NewDevice(simt.TeslaK40())
	ddb := UploadDB(dev, db)
	dp := UploadMSVProfile(dev, mp)
	var first *SearchReport
	for _, workers := range []int{1, 2, 8} {
		for run := 0; run < 4; run++ {
			rep, err := (&Searcher{Dev: dev, HostWorkers: workers}).MSVSearchSynced(dp, ddb, true)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = rep
				if rep.Launch.Stats.SharedRaces == 0 {
					t.Fatal("unsynchronised multi-warp kernel did not race")
				}
				continue
			}
			if got, want := rep.Launch.Stats.SharedRaces, first.Launch.Stats.SharedRaces; got != want {
				t.Errorf("%d workers, run %d: %d races, first launch %d", workers, run, got, want)
			}
			for i := range rep.Results {
				if rep.Results[i] != first.Results[i] {
					t.Errorf("%d workers, run %d, seq %d: %+v, first launch %+v",
						workers, run, i, rep.Results[i], first.Results[i])
				}
			}
		}
	}
}

func TestMultiGPUMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mp, vp := buildProfiles(t, 80, 180, 18)
	db := testDB(t, rng, 60, 250)

	single := simt.NewDevice(simt.GTX580())
	ddb := UploadDB(single, db)
	srep, err := (&Searcher{Dev: single}).MSVSearch(UploadMSVProfile(single, mp), ddb)
	if err != nil {
		t.Fatal(err)
	}

	sys := simt.NewSystem(simt.GTX580(), 4)
	ms := &MultiSearcher{Sys: sys}
	mrep, err := ms.MSVSearch(mp, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(mrep.Results) != db.NumSeqs() {
		t.Fatalf("multi-GPU returned %d results", len(mrep.Results))
	}
	for i := range srep.Results {
		if srep.Results[i] != mrep.Results[i] {
			t.Fatalf("seq %d: multi %+v != single %+v", i, mrep.Results[i], srep.Results[i])
		}
	}

	vrep, err := ms.ViterbiSearch(vp, db)
	if err != nil {
		t.Fatal(err)
	}
	for i, sq := range db.Seqs {
		want := cpu.VitFilterScalar(vp, sq.Residues)
		if vrep.Results[i] != want {
			t.Fatalf("multi-GPU Viterbi seq %d: %+v != %+v", i, vrep.Results[i], want)
		}
	}
	// Shards should be residue-balanced.
	var lo, hi int64 = math.MaxInt64, 0
	for _, r := range mrep.ShardResidues {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if float64(hi) > 2.0*float64(lo) {
		t.Errorf("shard imbalance: %v", mrep.ShardResidues)
	}
}

// TestMemConfigCrossover verifies the headline occupancy behaviour of
// Figure 9: the shared configuration holds 100% occupancy for small
// MSV models, degrades for big ones, and the auto strategy switches to
// global at approximately model size 1002 — while models beyond ~1528
// cannot use the shared configuration at all.
func TestMemConfigCrossover(t *testing.T) {
	spec := simt.TeslaK40()
	occAt := func(m int, cfg MemConfig) float64 {
		plan, err := PlanMSV(spec, m, cfg)
		if err != nil {
			return -1
		}
		return plan.Occupancy.Fraction
	}
	if got := occAt(400, MemShared); got != 1.0 {
		t.Errorf("shared occupancy at M=400 is %.2f, want 1.0", got)
	}
	if got := occAt(48, MemShared); got != 1.0 {
		t.Errorf("shared occupancy at M=48 is %.2f, want 1.0", got)
	}
	// At M=800 shared occupancy has fallen to ~50% (the paper's curve)
	// but auto still picks shared — its lower access cost buys back the
	// deficit; the paper's peak MSV speedup is at 800 on shared.
	if s800 := occAt(800, MemShared); s800 > 0.6 || s800 < 0.4 {
		t.Errorf("shared occupancy at M=800 is %.2f, want ~0.5", s800)
	}
	if plan, err := PlanMSV(spec, 800, MemAuto); err != nil || plan.MemConfig != MemShared {
		t.Errorf("auto at M=800 picked %v (err %v), want shared", plan.MemConfig, err)
	}
	s1002, g1002 := occAt(1002, MemShared), occAt(1002, MemGlobal)
	if s1002 >= g1002 {
		t.Errorf("at M=1002 global (%.2f) should beat shared (%.2f) — the paper's crossover", g1002, s1002)
	}
	if occAt(2405, MemShared) > 0.1 && occAt(2405, MemShared) != -1 {
		t.Errorf("shared at M=2405 should be crippled or impossible, got %.2f", occAt(2405, MemShared))
	}
	// Auto must pick global past the crossover.
	plan, err := PlanMSV(spec, 1528, MemAuto)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MemConfig != MemGlobal {
		t.Errorf("auto at M=1528 picked %s, want global", plan.MemConfig)
	}
	plan, err = PlanMSV(spec, 100, MemAuto)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MemConfig != MemShared {
		t.Errorf("auto at M=100 picked %s, want shared", plan.MemConfig)
	}
}

// TestViterbiOccupancyCeiling: the register footprint caps Viterbi at
// 50% occupancy on Kepler (§IV), lower on Fermi.
func TestViterbiOccupancyCeiling(t *testing.T) {
	for _, m := range []int{48, 100, 200, 400, 800} {
		plan, err := PlanViterbi(simt.TeslaK40(), m, MemAuto)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Occupancy.Fraction > 0.5 {
			t.Errorf("M=%d: Viterbi occupancy %.2f exceeds the 50%% register ceiling",
				m, plan.Occupancy.Fraction)
		}
	}
	k, err := PlanViterbi(simt.TeslaK40(), 100, MemAuto)
	if err != nil {
		t.Fatal(err)
	}
	f, err := PlanViterbi(simt.GTX580(), 100, MemAuto)
	if err != nil {
		t.Fatal(err)
	}
	if f.Occupancy.Fraction >= k.Occupancy.Fraction {
		t.Errorf("Fermi Viterbi occupancy %.2f should trail Kepler %.2f",
			f.Occupancy.Fraction, k.Occupancy.Fraction)
	}
}

func TestRemapResidue(t *testing.T) {
	cases := map[byte]byte{
		0: 0, 19: 19, // canonical pass through
		20: devB, 21: devJ, 22: devZ, 25: devX,
		23:               8, // O -> K
		24:               1, // U -> C
		alphabet.CodeGap: devInvalid, alphabet.CodeEnd: devInvalid, alphabet.CodeMissing: devInvalid,
	}
	for in, want := range cases {
		if got := remapResidue(in); got != want {
			t.Errorf("remapResidue(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestUploadDBSentinelTermination(t *testing.T) {
	dev := simt.NewDevice(simt.TeslaK40())
	db := seq.NewDatabase("s")
	db.Add(&seq.Sequence{Name: "six", Residues: []byte{0, 1, 2, 3, 4, 5}}) // exactly one word
	ddb := UploadDB(dev, db)
	if alphabet.PackedAt(ddb.Packed[0], 6) != alphabet.PackSentinel {
		t.Error("packed sequence lacks a trailing sentinel")
	}
}

// TestDDScanMatchesGoldenExactly: the §VI prefix-scan D-D resolution
// must agree with the golden filter bit for bit, including on
// gap-heavy models with long D-D chains, while eliminating the lazy-F
// iterations entirely.
func TestDDScanMatchesGoldenExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, params := range []hmm.BuildParams{
		hmm.DefaultBuildParams(),
		{MatchIdentity: 0.7, GapOpen: 0.2, GapExtend: 0.9},
	} {
		for _, m := range []int{31, 33, 100} {
			h, err := hmm.Random("scan", m, abc, params, rng)
			if err != nil {
				t.Fatal(err)
			}
			p := profile.Config(h)
			p.SetLength(150)
			vp := profile.NewVitProfile(p)
			db := testDB(t, rng, 25, 220)
			dev := simt.NewDevice(simt.TeslaK40())
			ddb := UploadDB(dev, db)
			s := &Searcher{Dev: dev, Mem: MemShared, DDScan: true}
			rep, err := s.ViterbiSearch(UploadVitProfile(dev, vp), ddb)
			if err != nil {
				t.Fatal(err)
			}
			for i, sq := range db.Seqs {
				want := cpu.VitFilterScalar(vp, sq.Residues)
				if rep.Results[i] != want {
					t.Fatalf("gapOpen=%g M=%d seq %d: dd-scan %+v != golden %+v",
						params.GapOpen, m, i, rep.Results[i], want)
				}
			}
			if rep.LazyF.Iterations != 0 {
				t.Errorf("dd-scan path should report zero lazy-F iterations, got %d", rep.LazyF.Iterations)
			}
			if rep.Launch.Stats.ShuffleOps == 0 {
				t.Error("dd-scan path should issue shuffles")
			}
		}
	}
}

// TestDDScanIgnoredOnFermi: the scan needs shuffle; Fermi silently
// falls back to the vote loop and still matches golden.
func TestDDScanIgnoredOnFermi(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	_, vp := buildProfiles(t, 64, 150, 33)
	db := testDB(t, rng, 10, 200)
	dev := simt.NewDevice(simt.GTX580())
	ddb := UploadDB(dev, db)
	s := &Searcher{Dev: dev, Mem: MemShared, DDScan: true}
	rep, err := s.ViterbiSearch(UploadVitProfile(dev, vp), ddb)
	if err != nil {
		t.Fatal(err)
	}
	for i, sq := range db.Seqs {
		want := cpu.VitFilterScalar(vp, sq.Residues)
		if rep.Results[i] != want {
			t.Fatalf("seq %d: fermi fallback %+v != golden %+v", i, rep.Results[i], want)
		}
	}
}

// TestLaunchDeterministicAcrossHostWorkers: host-side parallelism must
// not change results or counters (the stats merge is ordered).
func TestLaunchDeterministicAcrossHostWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	mp, vp := buildProfiles(t, 90, 150, 72)
	db := testDB(t, rng, 50, 250)
	var baseM, baseV *SearchReport
	for _, workers := range []int{1, 2, 8} {
		dev := simt.NewDevice(simt.TeslaK40())
		ddb := UploadDB(dev, db)
		s := &Searcher{Dev: dev, HostWorkers: workers}
		mrep, err := s.MSVSearch(UploadMSVProfile(dev, mp), ddb)
		if err != nil {
			t.Fatal(err)
		}
		vrep, err := s.ViterbiSearch(UploadVitProfile(dev, vp), ddb)
		if err != nil {
			t.Fatal(err)
		}
		if baseM == nil {
			baseM, baseV = mrep, vrep
			continue
		}
		if mrep.Launch.Stats != baseM.Launch.Stats || vrep.Launch.Stats != baseV.Launch.Stats {
			t.Fatalf("workers=%d: counters differ from workers=1", workers)
		}
		for i := range baseM.Results {
			if mrep.Results[i] != baseM.Results[i] || vrep.Results[i] != baseV.Results[i] {
				t.Fatalf("workers=%d: results differ at %d", workers, i)
			}
		}
	}
}

// TestRowSpillViterbiLargeModels: on very large models the planner
// spills the DP rows to (L2-cached) global memory, recovering
// occupancy, while the scores stay bit-identical to the golden filter.
func TestRowSpillViterbiLargeModels(t *testing.T) {
	spec := simt.TeslaK40()
	plan, err := PlanViterbi(spec, 2405, MemSpill)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.RowsInGlobal {
		t.Fatalf("spill plan lacks RowsInGlobal: %+v", plan)
	}
	if plan.Occupancy.Fraction < 0.4 {
		t.Errorf("spilled occupancy %.2f, want the register ceiling (~0.5)", plan.Occupancy.Fraction)
	}
	// The paper's configurations never spill.
	small, err := PlanViterbi(spec, 2405, MemGlobal)
	if err != nil {
		t.Fatal(err)
	}
	if small.RowsInGlobal {
		t.Error("the global configuration must keep rows in shared memory")
	}
	if _, err := PlanMSV(spec, 400, MemSpill); err == nil {
		t.Error("spill must be rejected for the MSV kernel")
	}

	// Exactness on a spilled launch (use a large-but-simulable model).
	rng := rand.New(rand.NewSource(81))
	_, vp := buildProfiles(t, 1600, 120, 82)
	db := testDB(t, rng, 6, 150)
	dev := simt.NewDevice(spec)
	ddb := UploadDB(dev, db)
	s := &Searcher{Dev: dev, Mem: MemSpill}
	rep, err := s.ViterbiSearch(UploadVitProfile(dev, vp), ddb)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Plan.RowsInGlobal {
		t.Fatal("launch did not use the spill plan")
	}
	for i, sq := range db.Seqs {
		want := cpu.VitFilterScalar(vp, sq.Residues)
		if rep.Results[i] != want {
			t.Fatalf("spilled seq %d: gpu %+v != golden %+v", i, rep.Results[i], want)
		}
	}
	if rep.Launch.Stats.CachedStoreTransactions == 0 {
		t.Error("spilled rows should meter cached stores")
	}
}

// TestQuickCrossEngineEquivalence: property-based spot check — for
// random models, lengths and memory configurations, the GPU kernels
// must equal the golden filters exactly.
func TestQuickCrossEngineEquivalence(t *testing.T) {
	f := func(seed int64, mRaw, lRaw uint8, memBit, archBit bool) bool {
		m := int(mRaw)%120 + 1
		l := int(lRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		h, err := hmm.Random("q", m, abc, hmm.DefaultBuildParams(), rng)
		if err != nil {
			return false
		}
		p := profile.Config(h)
		p.SetLength(l)
		mp, vp := profile.NewMSVProfile(p), profile.NewVitProfile(p)
		dsq := randomSeq(rng, l)

		spec := simt.TeslaK40()
		if archBit {
			spec = simt.GTX580()
		}
		mem := MemShared
		if memBit {
			mem = MemGlobal
		}
		db := seq.NewDatabase("q")
		db.Add(&seq.Sequence{Name: "s", Residues: dsq})
		dev := simt.NewDevice(spec)
		ddb := UploadDB(dev, db)
		s := &Searcher{Dev: dev, Mem: mem}
		mrep, err := s.MSVSearch(UploadMSVProfile(dev, mp), ddb)
		if err != nil {
			return false
		}
		vrep, err := s.ViterbiSearch(UploadVitProfile(dev, vp), ddb)
		if err != nil {
			return false
		}
		return mrep.Results[0] == cpu.MSVFilterScalar(mp, dsq) &&
			vrep.Results[0] == cpu.VitFilterScalar(vp, dsq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestLaneUtilizationRaggedModels: a model one position past a chunk
// boundary wastes almost a full chunk of lanes per row, while an
// aligned model keeps the warps full — a divergence cost orthogonal to
// occupancy.
func TestLaneUtilizationRaggedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db := testDB(t, rng, 20, 200)
	util := func(m int) float64 {
		mp, _ := buildProfiles(t, m, 150, int64(m))
		dev := simt.NewDevice(simt.TeslaK40())
		ddb := UploadDB(dev, db)
		rep, err := (&Searcher{Dev: dev, Mem: MemShared}).MSVSearch(UploadMSVProfile(dev, mp), ddb)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Launch.Stats.LaneUtilization()
	}
	aligned, ragged := util(64), util(65)
	if aligned < 0.95 {
		t.Errorf("aligned model utilisation %.2f, want ~1", aligned)
	}
	if ragged > aligned-0.2 {
		t.Errorf("ragged model should waste lanes: %.2f vs %.2f", ragged, aligned)
	}
}

func TestParseMemConfig(t *testing.T) {
	for _, want := range []MemConfig{MemAuto, MemShared, MemGlobal} {
		if got, err := ParseMemConfig(want.String()); err != nil || got != want {
			t.Errorf("ParseMemConfig(%q) = %v, %v; want %v", want.String(), got, err, want)
		}
	}
	for _, bad := range []string{"", "spill", "Shared", "l2"} {
		if _, err := ParseMemConfig(bad); err == nil {
			t.Errorf("ParseMemConfig(%q) accepted", bad)
		}
	}
}
