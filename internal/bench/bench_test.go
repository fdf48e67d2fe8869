package bench

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/kernprof"
)

func TestFig9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	var buf bytes.Buffer
	rows, err := Fig9(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*len(cfg.Sizes) {
		t.Fatalf("got %d rows", len(rows))
	}
	byKey := map[string]Fig9Row{}
	for _, r := range rows {
		byKey[r.DB.String()+r.Stage.String()+string(rune(r.M))] = r
		if r.GlobalSpeedup <= 0 || r.OptimalSpeedup <= 0 {
			t.Errorf("row %+v has non-positive speedup", r)
		}
		if r.OptimalSpeedup < r.GlobalSpeedup || (r.SharedFits && r.OptimalSpeedup < r.SharedSpeedup) {
			t.Errorf("optimal is not the max: %+v", r)
		}
	}
	// Paper shapes on the quick sweep: shared wins at 400, global at
	// 1528, for MSV.
	for _, db := range []DBKind{Swissprot, Envnr} {
		var at400, at1528 Fig9Row
		for _, r := range rows {
			if r.DB == db && r.Stage == StageMSV && r.M == 400 {
				at400 = r
			}
			if r.DB == db && r.Stage == StageMSV && r.M == 1528 {
				at1528 = r
			}
		}
		if !at400.SharedFits || at400.SharedSpeedup <= at400.GlobalSpeedup*0.8 {
			t.Errorf("%s MSV at 400: shared %.2f should be competitive with global %.2f",
				db, at400.SharedSpeedup, at400.GlobalSpeedup)
		}
		if at1528.SharedFits && at1528.SharedSpeedup >= at1528.GlobalSpeedup {
			t.Errorf("%s MSV at 1528: global %.2f should beat shared %.2f",
				db, at1528.GlobalSpeedup, at1528.SharedSpeedup)
		}
	}
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("report text missing")
	}
}

func TestFig10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	cfg.Sizes = []int{400}
	var buf bytes.Buffer
	rows, err := Fig10(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Overall < 1.0 || r.Overall > 8 {
			t.Errorf("%s overall speedup %.2f implausible", r.DB, r.Overall)
		}
		if r.MSVPass <= 0 || r.MSVPass > 0.3 {
			t.Errorf("%s MSV pass %.3f implausible", r.DB, r.MSVPass)
		}
	}
	// §V: Swissprot's higher homology means more Viterbi work and a
	// lower overall speedup than Envnr.
	if rows[0].DB != Swissprot || rows[1].DB != Envnr {
		t.Fatal("row order changed")
	}
	if rows[0].MSVPass <= rows[1].MSVPass {
		t.Errorf("Swissprot MSV pass %.3f should exceed Envnr %.3f (homology)",
			rows[0].MSVPass, rows[1].MSVPass)
	}
	if rows[0].Overall >= rows[1].Overall {
		t.Errorf("Swissprot overall %.2f should trail Envnr %.2f (paper: 3.0x vs 3.8x)",
			rows[0].Overall, rows[1].Overall)
	}
}

func TestFig11Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	cfg.Sizes = []int{400}
	var buf bytes.Buffer
	rows, err := Fig11(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Overall4 <= r.Overall1 {
			t.Errorf("%s: 4-GPU %.2f should beat 1-GPU %.2f", r.DB, r.Overall4, r.Overall1)
		}
		if r.ScalingEfficiency < 0.6 || r.ScalingEfficiency > 1.05 {
			t.Errorf("%s: scaling efficiency %.2f outside the near-linear band", r.DB, r.ScalingEfficiency)
		}
		if r.Overall4 < 2 || r.Overall4 > 12 {
			t.Errorf("%s: 4-GPU overall %.2f outside the plausible band around the paper's 5.6-7.8x", r.DB, r.Overall4)
		}
	}
}

func TestStreamScalingQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	var buf bytes.Buffer
	rows, err := StreamScaling(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 1/2/4 devices", len(rows))
	}
	byDev := map[int]StreamScalingRow{}
	for _, r := range rows {
		byDev[r.Devices] = r
		if r.DeviceSeconds <= 0 || r.Throughput <= 0 {
			t.Errorf("%d devices: non-positive time/throughput %+v", r.Devices, r)
		}
		if r.Batches < 4*r.Devices {
			t.Errorf("%d devices: only %d batches; too coarse to balance", r.Devices, r.Batches)
		}
		var served int
		for _, u := range r.Util {
			served += u.Batches
		}
		if served != r.Batches {
			t.Errorf("%d devices: utilization accounts %d of %d batches", r.Devices, served, r.Batches)
		}
	}
	if s := byDev[1].Speedup; s != 1 {
		t.Errorf("1-device speedup %.2f, want 1.00", s)
	}
	// The acceptance gate: >=3x modelled throughput at 4 devices on the
	// skew-free workload (near-linear scaling under dynamic batching).
	if s := byDev[4].Speedup; s < 3 {
		t.Errorf("4-device speedup %.2fx, want >= 3x", s)
	}
	if s := byDev[2].Speedup; s < 1.5 {
		t.Errorf("2-device speedup %.2fx, want >= 1.5x", s)
	}
	if !strings.Contains(buf.String(), "Streamed scaling") {
		t.Error("report text missing")
	}

	// Modelled numbers repeat bit for bit: a second run, on whatever
	// schedule the host gives it, reports the same rows and prints the
	// same bytes. Only Util, the host's split, may differ.
	var buf2 bytes.Buffer
	rows2, err := StreamScaling(cfg, &buf2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].Util, rows2[i].Util = nil, nil
	}
	if !reflect.DeepEqual(rows, rows2) {
		t.Errorf("two runs differ:\n%+v\n%+v", rows, rows2)
	}
	if buf.String() != buf2.String() {
		t.Errorf("two runs print different reports:\n%s\n%s", buf.String(), buf2.String())
	}
}

func TestFig1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	var buf bytes.Buffer
	st, err := Fig1(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.MSVPass < 0.005 || st.MSVPass > 0.08 {
		t.Errorf("MSV pass %.4f, paper reports 2.2%%", st.MSVPass)
	}
	if st.VitPass >= st.MSVPass {
		t.Error("Viterbi must pass fewer sequences than MSV")
	}
	if st.MSVTimeShare < 0.5 {
		t.Errorf("MSV time share %.2f; the paper reports ~80%%", st.MSVTimeShare)
	}
	// At quick scale only a handful of sequences reach Forward, so its
	// share is noisy; assert the robust orderings only.
	if st.MSVTimeShare < st.VitTimeShare || st.FwdTimeShare > 0.5 {
		t.Errorf("time shares implausible: %.2f %.2f %.2f",
			st.MSVTimeShare, st.VitTimeShare, st.FwdTimeShare)
	}
}

func TestPfamReport(t *testing.T) {
	cfg := DefaultConfig()
	var buf bytes.Buffer
	rep, err := Pfam(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFamilies != 34831 {
		t.Errorf("total families %d", rep.TotalFamilies)
	}
	if rep.SharedServedFraction < 0.98 {
		t.Errorf("shared-served fraction %.3f, paper says ~98.9%%", rep.SharedServedFraction)
	}
	sawGlobal := false
	for _, r := range rep.Sweep {
		if r.M <= 400 && r.AutoConfig != gpu.MemShared {
			t.Errorf("M=%d should auto-select shared", r.M)
		}
		if r.AutoConfig == gpu.MemGlobal {
			sawGlobal = true
		}
	}
	if !sawGlobal {
		t.Error("no sweep size selected the global configuration")
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	var buf bytes.Buffer
	rep, err := Ablations(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SyncedTime <= rep.SyncFreeTime {
		t.Errorf("synced kernel %.4g should be slower than warp-synchronous %.4g",
			rep.SyncedTime, rep.SyncFreeTime)
	}
	if rep.SyncedSyncs == 0 || rep.SyncedStalls == 0 {
		t.Error("synced kernel should report barriers and stalls")
	}
	if rep.SharedRedTime <= rep.ShuffleTime {
		t.Errorf("shared-memory reduction %.4g should be slower than shuffle %.4g",
			rep.SharedRedTime, rep.ShuffleTime)
	}
	if ratio := float64(rep.UnpackedLoadTrans) / float64(rep.PackedLoadTrans); ratio < 3 {
		t.Errorf("packing traffic ratio %.2f, expected ~6x fewer sequence fetches", ratio)
	}
	if rep.EagerTime <= rep.LazyTime {
		t.Errorf("eager D-D loop %.4g should be slower than lazy %.4g", rep.EagerTime, rep.LazyTime)
	}
	if rep.LazyItersGappy <= rep.LazyItersTypical {
		t.Errorf("gap-heavy models should iterate more: %.2f vs %.2f",
			rep.LazyItersGappy, rep.LazyItersTypical)
	}
	// §VI extension: the prefix scan caps the D-D cost, so it must beat
	// the vote loop decisively on the gap-heavy model.
	if rep.ScanTimeGappy >= rep.LazyTimeGappy {
		t.Errorf("prefix scan %.4g should beat the vote loop %.4g on gap-heavy models",
			rep.ScanTimeGappy, rep.LazyTimeGappy)
	}
	if len(rep.HomologySpeedups) != 3 {
		t.Fatalf("homology sweep has %d points", len(rep.HomologySpeedups))
	}
	if rep.HomologySpeedups[2] >= rep.HomologySpeedups[0] {
		t.Errorf("higher homology should reduce the overall speedup: %v", rep.HomologySpeedups)
	}
}

func TestSpillStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	var buf bytes.Buffer
	rows, err := SpillStudy(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SpillSpeedup <= r.GlobalSpeedup {
			t.Errorf("M=%d: spill %.2f should beat the collapsed global config %.2f",
				r.M, r.SpillSpeedup, r.GlobalSpeedup)
		}
		if r.SpillOcc <= r.GlobalOcc {
			t.Errorf("M=%d: spill occupancy %.2f should exceed global %.2f", r.M, r.SpillOcc, r.GlobalOcc)
		}
		if r.SpillSpeedup < 1.5 {
			t.Errorf("M=%d: spill speedup %.2f should stay well above 1x", r.M, r.SpillSpeedup)
		}
	}
}

func TestCSVWriters(t *testing.T) {
	var buf bytes.Buffer
	rows9 := []Fig9Row{{DB: Envnr, Stage: StageMSV, M: 400, SharedFits: true,
		SharedSpeedup: 5.0, GlobalSpeedup: 4.9, OptimalSpeedup: 5.0, SharedOcc: 1, GlobalOcc: 1}}
	if err := WriteFig9CSV(rows9, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "shared_speedup") || !strings.Contains(got, "Envnr,MSV,400,true,5.0000") {
		t.Errorf("fig9 csv:\n%s", got)
	}
	buf.Reset()
	if err := WriteFig10CSV([]Fig10Row{{DB: Swissprot, M: 800, Overall: 3.7, MSVPass: 0.022}}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Swissprot,800,3.7000,0.0220") {
		t.Errorf("fig10 csv:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteFig11CSV([]Fig11Row{{DB: Envnr, M: 400, Overall4: 6.6, Overall1: 1.9, ScalingEfficiency: 0.88}}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Envnr,400,6.6000,1.9000,0.8800") {
		t.Errorf("fig11 csv:\n%s", buf.String())
	}
}

func TestExportCSVQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	cfg.Sizes = []int{48}
	dir := t.TempDir()
	if err := ExportCSV(cfg, dir, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig9.csv", "fig10.csv", "fig11.csv"} {
		data, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
			t.Errorf("%s has no data rows", name)
		}
	}
}

func TestSensitivityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	var buf bytes.Buffer
	rows, err := Sensitivity(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The paper's claim: the accelerated engine preserves sensitivity.
	for _, r := range rows {
		if r.CPURecall != r.GPURecall {
			t.Errorf("rate %.2f: CPU recall %.3f != GPU recall %.3f",
				r.MutationRate, r.CPURecall, r.GPURecall)
		}
	}
	// Recall must start at ~1 and decay with divergence.
	if rows[0].CPURecall < 0.95 {
		t.Errorf("recall at 0%% mutation = %.2f, want ~1", rows[0].CPURecall)
	}
	last := rows[len(rows)-1]
	if last.CPURecall >= rows[0].CPURecall {
		t.Errorf("recall should decay with divergence: %.2f -> %.2f",
			rows[0].CPURecall, last.CPURecall)
	}
	// Specificity: composition-matched decoys must essentially never hit.
	for _, r := range rows {
		if r.DecoyFPR > 0.05 {
			t.Errorf("rate %.2f: decoy FPR %.3f too high", r.MutationRate, r.DecoyFPR)
		}
	}
}

// TestFig9ProfilerAcceptance is the PR's acceptance criterion: on a
// fig9 sweep spanning the paper's model ≈ 1002 crossover, the
// collected profile must (a) validate, (b) report achieved occupancy
// within 5% of predicted for every launch, and (c) flag the
// shared-config occupancy collapse between the sizes bracketing 1002.
func TestFig9ProfilerAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	cfg.Sizes = []int{400, 960, 1056, 1528}
	cfg.Prof = kernprof.NewCollector()
	if _, err := Fig9(cfg, nil); err != nil {
		t.Fatal(err)
	}
	prof := cfg.Prof.Profile()
	if len(prof.Launches) == 0 {
		t.Fatal("fig9 collected no launches")
	}
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, l := range prof.Launches {
		pred, ach := l.Predicted.Fraction, l.Achieved.Fraction
		if pred <= 0 {
			t.Errorf("launch %d (%s %v): predicted occupancy %g", l.Seq, l.Kernel, l.Labels, pred)
			continue
		}
		if diff := ach - pred; diff > 0.05*pred || diff < -0.05*pred {
			t.Errorf("launch %d (%s %v): achieved %.3f vs predicted %.3f, off by more than 5%%",
				l.Seq, l.Kernel, l.Labels, ach, pred)
		}
	}
	var rep bytes.Buffer
	if err := prof.WriteOccupancy(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "occupancy collapse") {
		t.Errorf("sweep across M=960..1056 did not flag the shared-config occupancy collapse:\n%s", rep.String())
	}
}
