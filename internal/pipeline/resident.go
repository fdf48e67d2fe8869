package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// ResidentDB is a target database packed once and kept in memory for
// the lifetime of a service process: the FASTA stream is chunked into
// the same residue-budgeted batches a one-shot -stream run would
// produce, so every query against it schedules identical work units —
// the property that makes served hit tables byte-identical to the
// one-shot CLI's. Hash fingerprints the raw input bytes and feeds the
// result-cache key.
type ResidentDB struct {
	// Name is the caller's handle for the database (the serve-layer
	// registry key).
	Name string
	// Hash is the SHA-256 of the raw FASTA bytes as read, before
	// parsing — a content fingerprint, not a path.
	Hash [32]byte
	// Batches holds the pre-parsed residue-budgeted batches in stream
	// order.
	Batches []*seq.Database
	// Seqs and Residues are stream-wide totals.
	Seqs     int
	Residues int64
	// BatchResidues is the residue budget the batches were cut with.
	BatchResidues int64
}

// LoadResidentDB parses a FASTA stream into a resident database,
// chunked with the given residue budget (the same chunker as the
// streaming engines, so batch boundaries match a -stream run with the
// same budget) and hashed over the raw bytes.
func LoadResidentDB(name string, r io.Reader, abc *alphabet.Alphabet, batchResidues int64) (*ResidentDB, error) {
	if batchResidues < 1 {
		return nil, fmt.Errorf("pipeline: resident batch residues %d < 1", batchResidues)
	}
	h := sha256.New()
	rdb := &ResidentDB{Name: name, BatchResidues: batchResidues}
	err := seq.StreamFASTAResidues(io.TeeReader(r, h), abc, batchResidues, func(db *seq.Database) error {
		rdb.Batches = append(rdb.Batches, db)
		rdb.Seqs += db.NumSeqs()
		rdb.Residues += db.TotalResidues()
		return nil
	})
	if err != nil {
		return nil, err
	}
	copy(rdb.Hash[:], h.Sum(nil))
	return rdb, nil
}

// batches is the resident database as a batchSource.
func (rdb *ResidentDB) batches(emit func(db *seq.Database) error) error {
	for _, db := range rdb.Batches {
		if err := emit(db); err != nil {
			return err
		}
	}
	return nil
}

// RunResidentStreamContext searches a resident database across the
// devices of a system with the streamed multi-device engine: the same
// scheduler, fault policy, exactly-once commit tokens, integrity
// guards, and host-CPU fallback as RunMultiGPUStreamContext, minus the
// FASTA parsing (batches are already resident) and minus journaling
// (a service query is retried by its client, not resumed from disk;
// cfg.Checkpoint is rejected). Devices that quarantine mid-run drain
// the remaining batches onto the host CPU, and because both engines
// are deterministic the degraded result is byte-identical. A nil or
// empty sys runs the whole query on the host CPU — the fully-degraded
// service path when every device in the pool is cordoned — over the
// same batches and merge, so its hits are byte-identical too.
func (pl *Pipeline) RunResidentStreamContext(ctx context.Context, sys *simt.System, mem gpu.MemConfig, rdb *ResidentDB, cfg StreamConfig) (*Result, error) {
	if rdb == nil || len(rdb.Batches) == 0 {
		return nil, fmt.Errorf("pipeline: resident database is empty")
	}
	if cfg.Checkpoint != nil {
		return nil, fmt.Errorf("pipeline: resident runs do not journal (checkpointing is the one-shot CLI's crash story; a service query is simply retried)")
	}
	if sys == nil || len(sys.Devices) == 0 {
		return pl.runHostStream(ctx, "resident-cpu", rdb.batches)
	}
	return pl.runDeviceStream(ctx, "resident-stream", "resident", sys, mem, rdb.batches, cfg, &streamRun{})
}
