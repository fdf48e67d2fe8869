package pipeline

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/simt"
)

// A resident database must cut exactly the batches the streaming
// parser would, and hash the raw bytes.
func TestLoadResidentDBMatchesStreamChunking(t *testing.T) {
	_, fasta, _, batchResidues := faultStreamFixture(t)
	rdb, err := LoadResidentDB("test", bytes.NewReader(fasta), abc, batchResidues)
	if err != nil {
		t.Fatal(err)
	}
	if rdb.Hash != sha256.Sum256(fasta) {
		t.Error("resident hash is not the SHA-256 of the raw FASTA bytes")
	}
	if len(rdb.Batches) < 2 {
		t.Fatalf("expected multiple batches, got %d", len(rdb.Batches))
	}
	seqs, res := 0, int64(0)
	for _, b := range rdb.Batches {
		seqs += b.NumSeqs()
		res += b.TotalResidues()
	}
	if seqs != rdb.Seqs || res != rdb.Residues {
		t.Errorf("totals mismatch: %d/%d seqs, %d/%d residues", seqs, rdb.Seqs, res, rdb.Residues)
	}
}

// A resident-database search must be byte-identical to the one-shot
// streamed search over the same FASTA bytes and budget — the serving
// path's core correctness invariant — clean and fully degraded to the
// host CPU.
func TestResidentStreamMatchesOneShot(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	rdb, err := LoadResidentDB("test", bytes.NewReader(fasta), abc, batchResidues)
	if err != nil {
		t.Fatal(err)
	}

	sys := simt.NewSystem(simt.GTX580(), 2).SetMode(simt.ModeFast)
	res, err := pl.RunResidentStreamContext(t.Context(), sys, gpu.MemAuto, rdb,
		StreamConfig{BatchResidues: batchResidues})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "resident 2-device stream", whole, res)

	var tblResident, tblWhole bytes.Buffer
	if err := WriteTblout(&tblResident, "chaos", res); err != nil {
		t.Fatal(err)
	}
	if err := WriteTblout(&tblWhole, "chaos", whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tblResident.Bytes(), tblWhole.Bytes()) {
		t.Error("resident tblout differs from whole-database tblout")
	}

	cpuRes, err := pl.RunResidentStreamContext(t.Context(), nil, gpu.MemAuto, rdb, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "resident CPU degraded", whole, cpuRes)
}

// Devices quarantining mid-run (one dead from the start) must degrade
// to the host fallback without changing a byte of the hit table.
func TestResidentStreamFaultedMatchesClean(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	rdb, err := LoadResidentDB("test", bytes.NewReader(fasta), abc, batchResidues)
	if err != nil {
		t.Fatal(err)
	}

	sys := simt.NewSystem(simt.GTX580(), 2).SetMode(simt.ModeFast)
	applyFaults(t, sys, "dev0:dead;dev1:dead", 7)
	res, err := pl.RunResidentStreamContext(t.Context(), sys, gpu.MemAuto, rdb,
		StreamConfig{BatchResidues: batchResidues, Policy: dispatch.Policy{MaxRetries: 8}})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "resident all-dead fallback", whole, res)
	rep := res.Extra.(*MultiGPUStreamExtra).Schedule
	if rep.Faults.Fallbacks == 0 {
		t.Error("no batches drained to the host fallback despite dead devices")
	}
}

// The resident path refuses a checkpoint config: journaling belongs to
// the one-shot CLI.
func TestResidentStreamRejectsCheckpoint(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	rdb, err := LoadResidentDB("test", bytes.NewReader(fasta), abc, batchResidues)
	if err != nil {
		t.Fatal(err)
	}
	sys := simt.NewSystem(simt.GTX580(), 1).SetMode(simt.ModeFast)
	_, err = pl.RunResidentStreamContext(t.Context(), sys, gpu.MemAuto, rdb,
		StreamConfig{BatchResidues: batchResidues,
			Checkpoint: &CheckpointConfig{Path: "unused"}})
	if err == nil {
		t.Fatal("checkpointed resident run did not error")
	}
}
