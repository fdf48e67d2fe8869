package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/workload"
)

// clusteredDB builds a database whose homologs sit in one contiguous
// run in the middle (indexes [clusterLo, clusterHi)), so a batch
// boundary can split the cluster — the merge-correctness case a
// shuffled workload.Generate database cannot exercise.
func clusteredDB(t *testing.T, h *hmm.Plan7, nRandom, nHomologs int, seed int64) (*seq.Database, int, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bg := abc.Backgrounds()
	randomResidues := func(n int) []byte {
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
	db := seq.NewDatabase("clustered")
	add := func(kind string, res []byte) {
		db.Add(&seq.Sequence{Name: fmt.Sprintf("%s_%03d", kind, db.NumSeqs()), Residues: res})
	}
	half := nRandom / 2
	for i := 0; i < half; i++ {
		add("bg", randomResidues(30+rng.Intn(250)))
	}
	clusterLo := db.NumSeqs()
	for i := 0; i < nHomologs; i++ {
		core := h.SampleSequence(rng)
		res := append(randomResidues(rng.Intn(40)), core...)
		res = append(res, randomResidues(rng.Intn(40))...)
		add("hom", res)
	}
	clusterHi := db.NumSeqs()
	for i := half; i < nRandom; i++ {
		add("bg", randomResidues(30+rng.Intn(250)))
	}
	return db, clusterLo, clusterHi
}

// sameHits asserts two results carry an identical hit list: same hit
// set, same global indexes, same scores and E-values.
func sameHits(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Hits) != len(got.Hits) {
		t.Fatalf("%s: hit counts differ: want %d, got %d", label, len(want.Hits), len(got.Hits))
	}
	for i := range want.Hits {
		a, b := want.Hits[i], got.Hits[i]
		if a.Index != b.Index || a.Name != b.Name {
			t.Errorf("%s: hit %d identity differs: %s@%d vs %s@%d", label, i, a.Name, a.Index, b.Name, b.Index)
		}
		if a.MSVBits != b.MSVBits || a.VitBits != b.VitBits || a.FwdBits != b.FwdBits {
			t.Errorf("%s: hit %d scores differ: %+v vs %+v", label, i, a, b)
		}
		if a.PValue != b.PValue || a.EValue != b.EValue {
			t.Errorf("%s: hit %d P/E-values differ: %g/%g vs %g/%g", label, i, a.PValue, a.EValue, b.PValue, b.EValue)
		}
	}
	if counts(want.MSV) != counts(got.MSV) || counts(want.Viterbi) != counts(got.Viterbi) || counts(want.Forward) != counts(got.Forward) {
		t.Errorf("%s: stage In/Out/Cells differ: MSV %v vs %v, Vit %v vs %v, Fwd %v vs %v", label,
			counts(want.MSV), counts(got.MSV), counts(want.Viterbi), counts(got.Viterbi),
			counts(want.Forward), counts(got.Forward))
	}
}

// counts is a stage's schedule-independent outcome: In, Out, Cells.
func counts(s StageStats) [3]int64 {
	return [3]int64{int64(s.In), int64(s.Out), s.Cells}
}

func TestStreamsMatchWholeRunAcrossBatchSizes(t *testing.T) {
	h, err := workload.Model("split", 60, abc, 23)
	if err != nil {
		t.Fatal(err)
	}
	db, clusterLo, clusterHi := clusteredDB(t, h, 80, 12, 24)
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	whole, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Hits) < 6 {
		t.Fatalf("only %d hits; cluster too weak for a split test", len(whole.Hits))
	}
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, db, abc); err != nil {
		t.Fatal(err)
	}

	// A batch size that puts a boundary inside the homolog cluster,
	// plus a smaller and a larger one.
	mid := (clusterLo + clusterHi) / 2
	if mid <= clusterLo || mid >= clusterHi {
		t.Fatalf("bad cluster geometry: [%d,%d)", clusterLo, clusterHi)
	}
	for _, batchSize := range []int{7, mid, db.NumSeqs() + 5} {
		boundary := batchSize
		splits := boundary > clusterLo && boundary < clusterHi
		res, err := pl.RunCPUStream(bytes.NewReader(fasta.Bytes()), batchSize)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, fmt.Sprintf("cpu batchSize=%d (splitsCluster=%v)", batchSize, splits), whole, res)
	}

	// The multi-device stream must match too, across two residue
	// budgets; the mid-cluster sequence offset gives a budget whose
	// first boundary lands inside the cluster.
	var toMid int64
	for _, s := range db.Seqs[:mid] {
		toMid += int64(s.Len())
	}
	sys := simt.NewSystem(simt.GTX580(), 4)
	for _, budget := range []int64{db.TotalResidues() / 13, toMid} {
		res, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta.Bytes()),
			StreamConfig{BatchResidues: budget})
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, fmt.Sprintf("multigpu budget=%d", budget), whole, res)
	}
}

func TestRunMultiGPUStreamMatchesSingleDeviceRunGPU(t *testing.T) {
	// Acceptance: a 4-device streamed run reports exactly the hits of a
	// single-device whole-database RunGPU — same hit set, indexes and
	// E-values — with per-device utilization observable.
	h, err := workload.Model("mstream", 80, abc, 25)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.EnvnrLike(0.0003, 26)
	spec.HomologFrac = 0.03
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	single, err := pl.RunGPU(simt.NewDevice(simt.GTX580()), gpu.MemAuto, db)
	if err != nil {
		t.Fatal(err)
	}
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, db, abc); err != nil {
		t.Fatal(err)
	}

	sys := simt.NewSystem(simt.GTX580(), 4)
	res, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta.Bytes()),
		StreamConfig{BatchResidues: db.TotalResidues() / 16})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "stream vs single-device RunGPU", single, res)

	extra, ok := res.Extra.(*MultiGPUStreamExtra)
	if !ok || extra.Schedule == nil {
		t.Fatal("stream extra missing")
	}
	rep := extra.Schedule
	if rep.Seqs != db.NumSeqs() || rep.Residues != db.TotalResidues() {
		t.Errorf("schedule totals %d seqs / %d residues, want %d / %d",
			rep.Seqs, rep.Residues, db.NumSeqs(), db.TotalResidues())
	}
	if len(rep.Util) != 4 {
		t.Fatalf("utilization for %d devices, want 4", len(rep.Util))
	}
	launches := make([]int, len(rep.Util))
	for i, b := range extra.Batches {
		if b.Seq != i {
			t.Fatalf("launch record %d is batch %d: want one entry per batch, in batch order", i, b.Seq)
		}
		launches[b.Device] += len(b.Launches)
	}
	var batches int
	var residues int64
	for i, u := range rep.Util {
		batches += u.Batches
		residues += u.Residues
		if u.Batches > 0 && u.Busy <= 0 {
			t.Errorf("device %d served %d batches with zero busy time", i, u.Batches)
		}
		if launches[i] < u.Batches {
			t.Errorf("device %d: %d launches for %d batches", i, launches[i], u.Batches)
		}
	}
	if batches != rep.Batches || residues != rep.Residues {
		t.Errorf("utilization sums %d batches / %d residues, want %d / %d",
			batches, residues, rep.Batches, rep.Residues)
	}
	// ~16 equal batches over 4 devices: every device must have served
	// some of the stream.
	for i, u := range rep.Util {
		if u.Batches == 0 {
			t.Errorf("device %d served no batches", i)
		}
	}
}

func TestRunMultiGPUStreamValidation(t *testing.T) {
	pl := testPipeline(t, 40, 150)
	sys := simt.NewSystem(simt.GTX580(), 2)
	if _, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(nil), StreamConfig{}); err == nil {
		t.Error("zero batch residues accepted")
	}
	if _, err := pl.RunMultiGPUStreamContext(context.Background(), nil, gpu.MemAuto, bytes.NewReader(nil), StreamConfig{BatchResidues: 100}); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(nil), StreamConfig{BatchResidues: 100}); err == nil {
		t.Error("empty stream accepted")
	}
}
