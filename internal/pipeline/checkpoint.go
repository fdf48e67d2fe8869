package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/frame"
)

// CheckpointConfig enables crash-safe journaling of a streamed
// multi-device run (see internal/checkpoint and DESIGN §2e). Every
// committed batch's result is appended to an fsync'd on-disk journal
// before its merge is acknowledged, so a host crash loses at most the
// un-synced tail; a resumed run replays the journal, skips the
// completed batches, and produces byte-identical output.
type CheckpointConfig struct {
	// Path is the journal file.
	Path string
	// Resume replays an existing journal at Path before running; when
	// no journal exists the run starts fresh (and journals). Resuming
	// requires the same model, calibration, and BatchResidues as the
	// original run — the journal's config fingerprint is checked.
	Resume bool
	// SyncEvery is the fsync cadence (checkpoint.Options.SyncEvery):
	// 0/1 syncs every batch; N>1 amortises, risking the last <N batches
	// on a crash (they re-execute on resume).
	SyncEvery int
	// Crash injects a crash at a chosen journal append, for testing
	// recovery (see checkpoint.CrashAfter).
	Crash *checkpoint.CrashPlan
}

// openStreamRun starts a streamed run's state: it opens (or resumes)
// the checkpoint journal per cfg.Checkpoint and indexes the records
// already committed there by batch ordinal; a nil cfg.Checkpoint gives
// an unjournaled run. mode is the simulator mode stamped into the
// header (and checked on resume), so a resumed run can never silently
// mix cost models. Shared by the multi-device and cluster streaming
// paths — the cluster coordinator reuses the same journal as its
// commit log.
func (pl *Pipeline) openStreamRun(cfg StreamConfig, mode byte) (*streamRun, error) {
	ck := cfg.Checkpoint
	if ck == nil {
		return &streamRun{}, nil
	}
	if pl.Opts.ComputeAlignments {
		return nil, fmt.Errorf("pipeline: checkpoint journaling does not support alignment output: domain alignments are not encoded in journal records")
	}
	skip := make(map[uint64]checkpoint.Record)
	fp := pl.Fingerprint(cfg)
	opts := checkpoint.Options{SyncEvery: ck.SyncEvery, Crash: ck.Crash, Mode: mode}
	if ck.Resume && checkpoint.Exists(ck.Path) {
		journal, recs, err := checkpoint.Resume(ck.Path, fp, opts)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if _, dup := skip[rec.Seq]; dup {
				journal.Close()
				return nil, fmt.Errorf("pipeline: journal holds two records for batch %d: refusing to resume", rec.Seq)
			}
			skip[rec.Seq] = rec
		}
		return &streamRun{journal: journal, skip: skip}, nil
	}
	journal, err := checkpoint.Create(ck.Path, fp, opts)
	if err != nil {
		return nil, err
	}
	return &streamRun{journal: journal}, nil
}

// Fingerprint digests everything that determines batch identity and
// batch results: the model (via its name, size, and calibrated score
// distributions — the calibration constants are a float-exact function
// of the full model), the stage thresholds, the scoring options, and
// the chunking budget. Two runs with equal fingerprints chunk the
// stream identically and compute identical per-batch results, which is
// what makes replaying a journal record equivalent to re-running its
// batch. The cluster tier uses the same digest: the coordinator stamps
// it into the worker handshake (a worker built from a different model,
// thresholds, or batch budget is rejected at connect) and
// cmd/hmmworker computes its own side from the same inputs.
func (pl *Pipeline) Fingerprint(cfg StreamConfig) checkpoint.Fingerprint {
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	b := append([]byte("hmmer3gpu-ckpt-v1\x00"), pl.Prof.Name...)
	b = append(b, 0)
	for _, v := range []uint64{
		uint64(pl.Prof.M), uint64(pl.Prof.L),
		math.Float64bits(pl.Opts.Thresholds.MSV), math.Float64bits(pl.Opts.Thresholds.Viterbi), math.Float64bits(pl.Opts.Thresholds.Forward),
		bit(pl.Opts.SkipForward), bit(pl.Opts.UseNull2),
		math.Float64bits(pl.MSVGumbel.Mu), math.Float64bits(pl.MSVGumbel.Lambda),
		math.Float64bits(pl.VitGumbel.Mu), math.Float64bits(pl.VitGumbel.Lambda),
		math.Float64bits(pl.FwdExp.Tau), math.Float64bits(pl.FwdExp.Lambda),
		uint64(cfg.BatchResidues),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return sha256.Sum256(b)
}

// EncodeResultPayload serialises one batch result — stage stats and
// batch-local hits — with the journal's bit-exact payload encoding:
// floats round-trip via their IEEE-754 bits, so a replayed merge is
// indistinguishable from the original one. Cluster workers ship results
// to the coordinator in this encoding, so the coordinator journals the
// wire payload verbatim and a replayed record is indistinguishable
// from a freshly received one.
func EncodeResultPayload(res *Result) []byte {
	p := make([]byte, 0, 3*32+8+len(res.Hits)*hitFixedSize)
	for _, s := range []StageStats{res.MSV, res.Viterbi, res.Forward} {
		for _, v := range []uint64{uint64(s.In), uint64(s.Out), uint64(s.Cells), uint64(s.Wall)} {
			p = binary.LittleEndian.AppendUint64(p, v)
		}
	}
	p = binary.LittleEndian.AppendUint64(p, uint64(len(res.Hits)))
	for _, h := range res.Hits {
		p = binary.LittleEndian.AppendUint64(p, uint64(h.Index))
		p = append(binary.LittleEndian.AppendUint64(p, uint64(len(h.Name))), h.Name...)
		for _, f := range []float64{h.MSVBits, h.VitBits, h.FwdBits, h.PValue, h.EValue} {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(f))
		}
	}
	return p
}

// hitFixedSize is a hit's payload length less its name: index, name
// length and five scores.
const hitFixedSize = 7 * 8

// DecodeResultPayload reverses EncodeResultPayload, validating the
// payload's structure: a corrupt or version-skewed worker payload must
// not merge, and while the journal's CRC already rejects bit rot, the
// structural checks catch encoding drift (a journal from a different
// code version).
func DecodeResultPayload(p []byte) (*Result, error) {
	r := frame.NewReader(p)
	res := &Result{}
	for _, s := range []*StageStats{&res.MSV, &res.Viterbi, &res.Forward} {
		s.In, s.Out, s.Cells, s.Wall = int(r.U64()), int(r.U64()), int64(r.U64()), time.Duration(r.U64())
	}
	n := r.U64()
	if n > uint64(r.Len()/hitFixedSize) {
		return nil, fmt.Errorf("implausible hit count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		h := Hit{Index: int(r.U64())}
		h.Name = string(r.Bytes(r.U64()))
		for _, dst := range []*float64{&h.MSVBits, &h.VitBits, &h.FwdBits, &h.PValue, &h.EValue} {
			*dst = math.Float64frombits(r.U64())
		}
		res.Hits = append(res.Hits, h)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("result payload of %d hits: %w", n, err)
	}
	return res, nil
}
