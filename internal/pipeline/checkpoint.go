package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hmmer3gpu/internal/checkpoint"
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
	h := sha256.New()
	w := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	f := func(vs ...float64) {
		for _, v := range vs {
			w(math.Float64bits(v))
		}
	}
	b := func(v bool) {
		if v {
			w(1)
		} else {
			w(0)
		}
	}
	h.Write([]byte("hmmer3gpu-ckpt-v1\x00"))
	h.Write([]byte(pl.Prof.Name))
	h.Write([]byte{0})
	w(uint64(pl.Prof.M), uint64(pl.Prof.L))
	f(pl.Opts.Thresholds.MSV, pl.Opts.Thresholds.Viterbi, pl.Opts.Thresholds.Forward)
	b(pl.Opts.SkipForward)
	b(pl.Opts.UseNull2)
	f(pl.MSVGumbel.Mu, pl.MSVGumbel.Lambda)
	f(pl.VitGumbel.Mu, pl.VitGumbel.Lambda)
	f(pl.FwdExp.Tau, pl.FwdExp.Lambda)
	w(uint64(cfg.BatchResidues))
	var fp checkpoint.Fingerprint
	h.Sum(fp[:0])
	return fp
}

// EncodeResultPayload serialises one batch result — stage stats and
// batch-local hits — with the journal's bit-exact payload encoding:
// floats round-trip via their IEEE-754 bits, so a replayed merge is
// indistinguishable from the original one. Cluster workers ship results
// to the coordinator in this encoding, so the coordinator journals the
// wire payload verbatim and a replayed record is indistinguishable
// from a freshly received one.
func EncodeResultPayload(res *Result) []byte {
	var p []byte
	u64 := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			p = append(p, buf[:]...)
		}
	}
	stage := func(s StageStats) {
		u64(uint64(s.In), uint64(s.Out), uint64(s.Cells), uint64(s.Wall))
	}
	stage(res.MSV)
	stage(res.Viterbi)
	stage(res.Forward)
	u64(uint64(len(res.Hits)))
	for _, h := range res.Hits {
		u64(uint64(h.Index), uint64(len(h.Name)))
		p = append(p, h.Name...)
		u64(math.Float64bits(h.MSVBits), math.Float64bits(h.VitBits),
			math.Float64bits(h.FwdBits), math.Float64bits(h.PValue),
			math.Float64bits(h.EValue))
	}
	return p
}

// DecodeResultPayload reverses EncodeResultPayload, validating the
// payload's structure: a corrupt or version-skewed worker payload must
// not merge, and while the journal's CRC already rejects bit rot, the
// structural checks catch encoding drift (a journal from a different
// code version).
func DecodeResultPayload(p []byte) (*Result, error) {
	pos := 0
	u64 := func() (uint64, error) {
		if pos+8 > len(p) {
			return 0, fmt.Errorf("payload truncated at byte %d", pos)
		}
		v := binary.LittleEndian.Uint64(p[pos:])
		pos += 8
		return v, nil
	}
	stage := func(s *StageStats) error {
		vals := make([]uint64, 4)
		for i := range vals {
			v, err := u64()
			if err != nil {
				return err
			}
			vals[i] = v
		}
		s.In, s.Out = int(vals[0]), int(vals[1])
		s.Cells = int64(vals[2])
		s.Wall = time.Duration(vals[3])
		return nil
	}
	res := &Result{}
	if err := stage(&res.MSV); err != nil {
		return nil, err
	}
	if err := stage(&res.Viterbi); err != nil {
		return nil, err
	}
	if err := stage(&res.Forward); err != nil {
		return nil, err
	}
	n, err := u64()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p)) { // each hit takes well over 1 byte
		return nil, fmt.Errorf("implausible hit count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		var h Hit
		idx, err := u64()
		if err != nil {
			return nil, err
		}
		h.Index = int(idx)
		nameLen, err := u64()
		if err != nil {
			return nil, err
		}
		if pos+int(nameLen) > len(p) || nameLen > uint64(len(p)) {
			return nil, fmt.Errorf("hit %d: name truncated at byte %d", i, pos)
		}
		h.Name = string(p[pos : pos+int(nameLen)])
		pos += int(nameLen)
		for _, dst := range []*float64{&h.MSVBits, &h.VitBits, &h.FwdBits, &h.PValue, &h.EValue} {
			bits, err := u64()
			if err != nil {
				return nil, err
			}
			*dst = math.Float64frombits(bits)
		}
		res.Hits = append(res.Hits, h)
	}
	if pos != len(p) {
		return nil, fmt.Errorf("%d trailing bytes after %d hits", len(p)-pos, n)
	}
	return res, nil
}
