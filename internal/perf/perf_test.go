package perf

import (
	"math/rand"
	"testing"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

var abc = alphabet.New()

func smallDB(rng *rand.Rand, n, meanLen int) *seq.Database {
	db := seq.NewDatabase("perftest")
	bg := abc.Backgrounds()
	for i := 0; i < n; i++ {
		L := meanLen/2 + rng.Intn(meanLen)
		res := make([]byte, L)
		for j := range res {
			u, acc := rng.Float64(), 0.0
			res[j] = 19
			for r, f := range bg {
				acc += f
				if u < acc {
					res[j] = byte(r)
					break
				}
			}
		}
		db.Add(&seq.Sequence{Name: "s", Residues: res})
	}
	return db
}

// msvSpeedup runs the MSV kernel on a small workload and returns the
// modelled speedup vs the baseline CPU model.
func msvSpeedup(t *testing.T, spec simt.DeviceSpec, m int, mem gpu.MemConfig, db *seq.Database) float64 {
	t.Helper()
	h, err := hmm.Random("perf", m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(int64(m))))
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	p.SetLength(int(db.MeanLen()))
	mp := profile.NewMSVProfile(p)
	dev := simt.NewDevice(spec)
	ddb := gpu.UploadDB(dev, db)
	rep, err := (&gpu.Searcher{Dev: dev, Mem: mem}).MSVSearch(gpu.UploadMSVProfile(dev, mp), ddb)
	if err != nil {
		t.Fatal(err)
	}
	cells := ddb.TotalResidues * int64(m)
	return Speedup(CPUTimeMSV(BaselineI5(), cells), GPUTime(spec, rep.Launch))
}

func vitSpeedup(t *testing.T, spec simt.DeviceSpec, m int, mem gpu.MemConfig, db *seq.Database) float64 {
	t.Helper()
	h, err := hmm.Random("perf", m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(int64(m))))
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	p.SetLength(int(db.MeanLen()))
	vp := profile.NewVitProfile(p)
	dev := simt.NewDevice(spec)
	ddb := gpu.UploadDB(dev, db)
	rep, err := (&gpu.Searcher{Dev: dev, Mem: mem}).ViterbiSearch(gpu.UploadVitProfile(dev, vp), ddb)
	if err != nil {
		t.Fatal(err)
	}
	cells := ddb.TotalResidues * int64(m)
	return Speedup(CPUTimeVit(BaselineI5(), cells), GPUTime(spec, rep.Launch))
}

// TestMSVSpeedupShape reproduces the qualitative Figure 9 behaviour on
// the K40: speedup rises from small models to a peak near M=800 in the
// shared configuration, and the global configuration wins for very
// large models.
func TestMSVSpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel simulation is slow")
	}
	rng := rand.New(rand.NewSource(1))
	db := smallDB(rng, 300, 250)
	k40 := simt.TeslaK40()

	s48 := msvSpeedup(t, k40, 48, gpu.MemShared, db)
	s400 := msvSpeedup(t, k40, 400, gpu.MemShared, db)
	s800 := msvSpeedup(t, k40, 800, gpu.MemShared, db)
	t.Logf("K40 MSV shared speedups: M=48 %.2f, M=400 %.2f, M=800 %.2f", s48, s400, s800)
	if !(s48 < s400 && s400 < s800) {
		t.Errorf("speedup should rise with model size toward the M=800 peak: %.2f %.2f %.2f", s48, s400, s800)
	}
	if s800 < 3.0 || s800 > 8.0 {
		t.Errorf("peak MSV speedup %.2f outside the plausible band around the paper's ~5x", s800)
	}

	s1528s := msvSpeedup(t, k40, 1528, gpu.MemShared, db)
	s1528g := msvSpeedup(t, k40, 1528, gpu.MemGlobal, db)
	t.Logf("K40 MSV at M=1528: shared %.2f, global %.2f", s1528s, s1528g)
	if s1528g <= s1528s {
		t.Errorf("global (%.2f) should beat shared (%.2f) at M=1528", s1528g, s1528s)
	}
}

// TestViterbiBelowMSV: the Viterbi kernel's occupancy ceiling and
// heavier inner loop keep its speedup below MSV's (paper: 2.9x vs
// 5.4x).
func TestViterbiBelowMSV(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel simulation is slow")
	}
	rng := rand.New(rand.NewSource(2))
	db := smallDB(rng, 150, 200)
	k40 := simt.TeslaK40()
	vitPeak := 0.0
	for _, m := range []int{100, 200} {
		vit := vitSpeedup(t, k40, m, gpu.MemAuto, db)
		t.Logf("K40 M=%d: Viterbi %.2f", m, vit)
		if vit > vitPeak {
			vitPeak = vit
		}
		if vit < 1.0 || vit > 4.5 {
			t.Errorf("M=%d: Viterbi speedup %.2f outside plausible band around the paper's ~2.9x", m, vit)
		}
	}
	msvPeak := msvSpeedup(t, k40, 800, gpu.MemShared, db)
	t.Logf("K40 peaks: MSV %.2f (M=800), Viterbi %.2f", msvPeak, vitPeak)
	if vitPeak >= msvPeak {
		t.Errorf("peak Viterbi speedup %.2f should trail peak MSV %.2f (paper: 2.9x vs 5.4x)", vitPeak, msvPeak)
	}
}

// TestFermiBelowKepler: a single GTX 580 must land near CPU parity
// (the paper: four of them reach 5.6-7.8x combined).
func TestFermiBelowKepler(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel simulation is slow")
	}
	rng := rand.New(rand.NewSource(3))
	db := smallDB(rng, 200, 220)
	k := msvSpeedup(t, simt.TeslaK40(), 400, gpu.MemAuto, db)
	f := msvSpeedup(t, simt.GTX580(), 400, gpu.MemAuto, db)
	t.Logf("MSV M=400: K40 %.2f, GTX580 %.2f", k, f)
	if f >= k {
		t.Errorf("Fermi speedup %.2f should trail Kepler %.2f", f, k)
	}
	if f < 0.7 || f > 3.5 {
		t.Errorf("single-Fermi MSV speedup %.2f outside the plausible band", f)
	}
}

func TestIssueEfficiency(t *testing.T) {
	if issueEfficiency(simt.Occupancy{WarpsPerSM: 64}) != 1 {
		t.Error("full occupancy should saturate")
	}
	if issueEfficiency(simt.Occupancy{WarpsPerSM: 24}) != 1 {
		t.Error("saturation point should saturate")
	}
	if got := issueEfficiency(simt.Occupancy{WarpsPerSM: 12}); got != 0.5 {
		t.Errorf("half saturation = %g", got)
	}
	if got := issueEfficiency(simt.Occupancy{WarpsPerSM: 0}); got <= 0 {
		t.Errorf("zero warps should clamp, got %g", got)
	}
}

func TestCPUTimesScaleLinearly(t *testing.T) {
	c := BaselineI5()
	if CPUTimeMSV(c, 2e9) != 2*CPUTimeMSV(c, 1e9) {
		t.Error("MSV time not linear")
	}
	if CPUTimeVit(c, 1e9) <= CPUTimeMSV(c, 1e9) {
		t.Error("Viterbi cells must cost more than MSV cells")
	}
}

func TestGPUTimeBounds(t *testing.T) {
	spec := simt.TeslaK40()
	rep := &simt.LaunchReport{
		Occupancy: simt.Occupancy{WarpsPerSM: 64},
	}
	rep.Stats.IssueCycles = 1e9
	tIssue := GPUTime(spec, rep)
	rep2 := *rep
	rep2.Stats.GlobalBytes = 1e12 // bandwidth-bound
	tMem := GPUTime(spec, &rep2)
	if tMem <= tIssue {
		t.Error("bandwidth-bound launch should take longer")
	}
	if tMem < 1e12/spec.MemBandwidth {
		t.Error("memory time below bandwidth bound")
	}
}

func TestSpeedupGuards(t *testing.T) {
	if Speedup(1, 0) != 0 {
		t.Error("zero gpu time should not divide")
	}
	if Speedup(2, 1) != 2 {
		t.Error("speedup arithmetic")
	}
}
