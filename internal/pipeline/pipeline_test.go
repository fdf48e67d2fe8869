package pipeline

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/refimpl"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/stats"
	"hmmer3gpu/internal/workload"
)

var abc = alphabet.New()

func testPipeline(t testing.TB, m, targetLen int) *Pipeline {
	t.Helper()
	h, err := workload.Model("pipe", m, abc, int64(m))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(h, targetLen, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPipelinePassFractionsMatchThresholds(t *testing.T) {
	// On a homolog-free random database the MSV stage must pass ~2% of
	// sequences (the paper's Figure 1 reports 2.2% on Env_nr) and the
	// Viterbi stage must cut survivors much further.
	h, err := workload.Model("pf", 120, abc, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.EnvnrLike(0.0004, 2) // ~2600 seqs
	spec.HomologFrac = 0
	db, err := workload.Generate(spec, nil, abc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	frac := res.MSV.PassFraction()
	if frac < 0.005 || frac > 0.06 {
		t.Errorf("MSV pass fraction %.4f, want ~0.02", frac)
	}
	if res.Viterbi.Out > res.MSV.Out/2 {
		t.Errorf("Viterbi passed %d of %d; should cut much deeper", res.Viterbi.Out, res.Viterbi.In)
	}
	if len(res.Hits) > db.NumSeqs()/100 {
		t.Errorf("%d hits on a random database", len(res.Hits))
	}
}

func TestPipelineFindsPlantedHomologs(t *testing.T) {
	h, err := workload.Model("hom", 90, abc, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.SwissprotLike(0.002, 4) // ~919 seqs
	spec.HomologFrac = 0.05
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	planted := int(0.05 * float64(db.NumSeqs()))
	if len(res.Hits) < planted/2 {
		t.Errorf("found %d hits, planted ~%d homologs", len(res.Hits), planted)
	}
	// Hits must be sorted by E-value.
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i].EValue < res.Hits[i-1].EValue {
			t.Fatal("hits not sorted by E-value")
		}
	}
	for _, hit := range res.Hits {
		if hit.EValue < 0 || math.IsNaN(hit.EValue) {
			t.Errorf("hit %s has E-value %g", hit.Name, hit.EValue)
		}
		if hit.Name == "" || hit.Index < 0 || hit.Index >= db.NumSeqs() {
			t.Errorf("malformed hit %+v", hit)
		}
	}
}

func TestGPUEngineAgreesWithCPU(t *testing.T) {
	// The accelerated pipeline must keep the sensitivity and accuracy
	// of the CPU pipeline: identical survivors at every stage and
	// identical final hits (the paper's "while preserving the
	// sensitivity and accuracy of HMMER 3.0").
	h, err := workload.Model("agree", 80, abc, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.EnvnrLike(0.0002, 6)
	spec.HomologFrac = 0.03
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cpuRes, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	dev := simt.NewDevice(simt.TeslaK40())
	gpuRes, err := pl.RunGPU(dev, gpu.MemAuto, db)
	if err != nil {
		t.Fatal(err)
	}
	if cpuRes.MSV.Out != gpuRes.MSV.Out || cpuRes.Viterbi.Out != gpuRes.Viterbi.Out {
		t.Fatalf("stage survivors differ: cpu %d/%d vs gpu %d/%d",
			cpuRes.MSV.Out, cpuRes.Viterbi.Out, gpuRes.MSV.Out, gpuRes.Viterbi.Out)
	}
	if len(cpuRes.Hits) != len(gpuRes.Hits) {
		t.Fatalf("hit counts differ: %d vs %d", len(cpuRes.Hits), len(gpuRes.Hits))
	}
	for i := range cpuRes.Hits {
		c, g := cpuRes.Hits[i], gpuRes.Hits[i]
		if c.Index != g.Index || c.MSVBits != g.MSVBits || c.VitBits != g.VitBits || c.FwdBits != g.FwdBits {
			t.Errorf("hit %d differs: cpu %+v vs gpu %+v", i, c, g)
		}
	}
	extra, ok := gpuRes.Extra.(*GPUExtra)
	if !ok || extra.MSVReport == nil {
		t.Error("GPU extra reports missing")
	}
}

func TestMultiGPUEngineAgreesWithCPU(t *testing.T) {
	h, err := workload.Model("multi", 64, abc, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.SwissprotLike(0.001, 8)
	spec.HomologFrac = 0.04
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cpuRes, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	sys := simt.NewSystem(simt.GTX580(), 4)
	mRes, err := pl.RunMultiGPU(sys, gpu.MemAuto, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpuRes.Hits) != len(mRes.Hits) {
		t.Fatalf("hit counts differ: %d vs %d", len(cpuRes.Hits), len(mRes.Hits))
	}
	for i := range cpuRes.Hits {
		if cpuRes.Hits[i].Index != mRes.Hits[i].Index {
			t.Errorf("hit %d index differs", i)
		}
	}
}

func TestStageCellAccounting(t *testing.T) {
	h, err := workload.Model("cells", 50, abc, 9)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.EnvnrLike(0.0001, 10)
	spec.HomologFrac = 0
	db, err := workload.Generate(spec, nil, abc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.MSV.Cells != db.TotalResidues()*50 {
		t.Errorf("MSV cells %d", res.MSV.Cells)
	}
	if res.Viterbi.Cells > res.MSV.Cells || res.Forward.Cells > res.Viterbi.Cells {
		t.Error("stage cells should shrink down the pipeline")
	}
}

func TestNewValidation(t *testing.T) {
	h, err := workload.Model("val", 20, abc, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(h, 0, DefaultOptions()); err == nil {
		t.Error("target length 0 accepted")
	}
	h.Mat[3][0] = 7 // corrupt
	if _, err := New(h, 100, DefaultOptions()); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestCalibrationSeparatesStages(t *testing.T) {
	pl := testPipeline(t, 70, 200)
	// The three fitted distributions must be sane and distinct.
	if pl.MSVGumbel.Lambda != pl.VitGumbel.Lambda {
		t.Error("lambdas should both be log 2")
	}
	if math.IsNaN(pl.MSVGumbel.Mu) || math.IsNaN(pl.VitGumbel.Mu) || math.IsNaN(pl.FwdExp.Tau) {
		t.Error("calibration produced NaN")
	}
	// A random score near mu must have a large P-value; a score far
	// above must have a small one.
	if p := pl.MSVGumbel.Surv(pl.MSVGumbel.Mu + 30); p > 1e-6 {
		t.Errorf("strong score P-value %g", p)
	}
}

// TestCalibrationIndependentOfWorkers: the samples are scored on a
// pool but fitted in the order they were drawn, so every worker count
// gives the same bits — and for the two filters, the bits of the
// serial stats.CalibrateGumbel over the single-sequence engines.
func TestCalibrationIndependentOfWorkers(t *testing.T) {
	h, err := workload.Model("cal", 70, abc, 70)
	if err != nil {
		t.Fatal(err)
	}
	var first *Pipeline
	for _, workers := range []int{1, 2, 8} {
		opts := DefaultOptions()
		opts.Workers = workers
		pl, err := New(h, 200, opts)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = pl
			continue
		}
		if pl.MSVGumbel != first.MSVGumbel || pl.VitGumbel != first.VitGumbel || pl.FwdExp != first.FwdExp {
			t.Errorf("Workers=%d: calibration {%v %v %v} differs from Workers=1 {%v %v %v}", workers,
				pl.MSVGumbel, pl.VitGumbel, pl.FwdExp, first.MSVGumbel, first.VitGumbel, first.FwdExp)
		}
	}

	bg := abc.Backgrounds()
	copts := DefaultOptions().Calibration
	copts.L = first.Prof.L
	msvEng := cpu.NewMSVEngine(first.MSV)
	msv, err := stats.CalibrateGumbel(func(dsq []byte) float64 {
		return stats.BitsFromNats(msvEng.Filter(dsq).Score)
	}, bg, copts)
	if err != nil {
		t.Fatal(err)
	}
	copts.Seed++
	vitEng := cpu.NewVitEngine(first.Vit)
	vit, err := stats.CalibrateGumbel(func(dsq []byte) float64 {
		return stats.BitsFromNats(vitEng.Filter(dsq).Score)
	}, bg, copts)
	if err != nil {
		t.Fatal(err)
	}
	if first.MSVGumbel != msv || first.VitGumbel != vit {
		t.Errorf("pooled calibration {%v %v} differs from the serial fit {%v %v}", first.MSVGumbel, first.VitGumbel, msv, vit)
	}
	copts.Seed++
	fwd, err := stats.CalibrateExponential(func(dsq []byte) float64 {
		return stats.BitsFromNats(refimpl.Forward(first.Prof, dsq))
	}, bg, copts)
	if err != nil {
		t.Fatal(err)
	}
	if first.FwdExp != fwd {
		t.Errorf("pooled Forward calibration %v differs from the serial fit %v", first.FwdExp, fwd)
	}
}

// TestForwardPathAllocatesOneRow: a Forward or ForwardPair call on a
// configured pipeline allocates its DP row and nothing else — the odds
// tables were built once, with the profile.
func TestForwardPathAllocatesOneRow(t *testing.T) {
	pl := testPipeline(t, 100, 200)
	dsq := make([]byte, 200)
	for i := range dsq {
		dsq[i] = byte(i % abc.Size())
	}
	var sink float64
	if allocs := testing.AllocsPerRun(50, func() { sink += refimpl.Forward(pl.Prof, dsq) }); allocs != 1 {
		t.Errorf("Forward made %v allocations per call, want 1 (the DP row)", allocs)
	}
	pair := func() {
		a, b := refimpl.ForwardPair(pl.Prof, dsq, dsq[:150])
		sink += a + b
	}
	// Off amd64, ForwardPair is two Forward calls: a row each.
	want := 1.0
	if runtime.GOARCH != "amd64" {
		want = 2
	}
	if allocs := testing.AllocsPerRun(50, pair); allocs != want {
		t.Errorf("ForwardPair made %v allocations per call, want %v (its rows)", allocs, want)
	}
	if math.IsNaN(sink) {
		t.Error("Forward returned NaN")
	}
}

func TestComputeAlignments(t *testing.T) {
	h, err := workload.Model("aln", 60, abc, 13)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.EnvnrLike(0.0001, 14)
	spec.HomologFrac = 0.05
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.ComputeAlignments = true
	pl, err := New(h, int(db.MeanLen()), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits to annotate")
	}
	for _, hit := range res.Hits {
		if len(hit.Domains) == 0 {
			t.Errorf("hit %s has no domain alignments", hit.Name)
			continue
		}
		for _, d := range hit.Domains {
			if len(d.Model) != len(d.Target) || len(d.Model) != len(d.Match) {
				t.Errorf("hit %s: ragged alignment rows", hit.Name)
			}
			if d.SeqFrom < 1 || d.SeqTo < d.SeqFrom || d.HMMFrom < 1 || d.HMMTo > pl.Prof.M {
				t.Errorf("hit %s: bad coordinates %+v", hit.Name, d)
			}
		}
		if len(hit.Envelopes) == 0 {
			t.Errorf("hit %s has no posterior envelopes", hit.Name)
		}
	}
}

func TestNull2ReducesScores(t *testing.T) {
	h, err := workload.Model("n2", 60, abc, 17)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.EnvnrLike(0.0002, 18)
	spec.HomologFrac = 0.03
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := base.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.UseNull2 = true
	corrected, err := New(h, int(db.MeanLen()), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := corrected.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) > len(plain.Hits) {
		t.Errorf("null2 added hits: %d vs %d", len(res.Hits), len(plain.Hits))
	}
	if len(res.Hits) == 0 {
		t.Fatal("null2 removed every hit")
	}
	plainBits := map[int]float64{}
	for _, hh := range plain.Hits {
		plainBits[hh.Index] = hh.FwdBits
	}
	for _, hh := range res.Hits {
		orig, ok := plainBits[hh.Index]
		if !ok {
			t.Errorf("hit %s appears only with null2", hh.Name)
			continue
		}
		if hh.FwdBits > orig+1e-9 {
			t.Errorf("hit %s: null2 raised the score %.3f -> %.3f", hh.Name, orig, hh.FwdBits)
		}
	}
}

func TestRunCPUStreamMatchesRunCPU(t *testing.T) {
	h, err := workload.Model("stream", 50, abc, 19)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.EnvnrLike(0.0002, 20)
	spec.HomologFrac = 0.03
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	whole, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, db, abc); err != nil {
		t.Fatal(err)
	}
	streamed, err := pl.RunCPUStream(&buf, 97)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.MSV.In != whole.MSV.In || streamed.MSV.Out != whole.MSV.Out ||
		streamed.Viterbi.Out != whole.Viterbi.Out {
		t.Fatalf("stage stats differ: %+v vs %+v", streamed.MSV, whole.MSV)
	}
	if len(streamed.Hits) != len(whole.Hits) {
		t.Fatalf("hit counts differ: %d vs %d", len(streamed.Hits), len(whole.Hits))
	}
	for i := range whole.Hits {
		a, b := whole.Hits[i], streamed.Hits[i]
		if a.Index != b.Index || a.FwdBits != b.FwdBits || a.EValue != b.EValue {
			t.Errorf("hit %d differs: %+v vs %+v", i, a, b)
		}
	}
}
