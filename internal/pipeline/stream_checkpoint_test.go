package pipeline

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/workload"
)

// ckptRun executes one streamed multi-device run with journaling.
func ckptRun(t *testing.T, pl *Pipeline, fasta []byte, batchResidues int64, devices int,
	ck *CheckpointConfig, mutate func(cfg *StreamConfig)) (*Result, error) {
	t.Helper()
	sys := simt.NewSystem(simt.GTX580(), devices)
	cfg := StreamConfig{BatchResidues: batchResidues, Checkpoint: ck}
	if mutate != nil {
		mutate(&cfg)
	}
	return pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta), cfg)
}

// TestStreamCrashResumeMatchesClean exercises every crash window: the
// run is killed by injection after two appends, resumed, and the final
// result must be bit-identical to the uninterrupted run — regardless of
// whether the crash tore a half-written record (after-append), lost the
// record entirely (before-append), or left it durable with the merge
// unacknowledged (after-sync).
func TestStreamCrashResumeMatchesClean(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)

	for _, tc := range []struct {
		window      checkpoint.Window
		wantDropped int
	}{
		{checkpoint.WindowBeforeAppend, 0},
		{checkpoint.WindowAfterAppend, 1},
		{checkpoint.WindowAfterSync, 0},
	} {
		t.Run(tc.window.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")

			_, err := ckptRun(t, pl, fasta, batchResidues, 2,
				&CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(2, tc.window)}, nil)
			if !errors.Is(err, checkpoint.ErrInjectedCrash) {
				t.Fatalf("crashed run returned %v, want ErrInjectedCrash", err)
			}

			res, err := ckptRun(t, pl, fasta, batchResidues, 2,
				&CheckpointConfig{Path: path, Resume: true}, nil)
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			sameHits(t, "resumed after "+tc.window.String(), whole, res)

			extra := res.Extra.(*MultiGPUStreamExtra)
			if extra.Replayed == 0 && tc.window == checkpoint.WindowAfterSync {
				t.Error("after-sync crash left nothing to replay")
			}
			if st := extra.Checkpoint; st == nil {
				t.Fatal("no checkpoint stats on a journaled run")
			} else if st.DroppedTail != tc.wantDropped {
				t.Errorf("dropped tail %d, want %d", st.DroppedTail, tc.wantDropped)
			}
		})
	}
}

// TestStreamJournalsEveryBatch pins the uninterrupted journaled run:
// every batch is journaled, fsync-per-append issues at least one sync
// per record, an amortised cadence issues fewer, and neither changes
// the hits.
func TestStreamJournalsEveryBatch(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	run := func(syncEvery int) (*checkpoint.Stats, int) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		res, err := ckptRun(t, pl, fasta, batchResidues, 2,
			&CheckpointConfig{Path: path, SyncEvery: syncEvery}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, "journaled run", whole, res)
		extra := res.Extra.(*MultiGPUStreamExtra)
		return extra.Checkpoint, extra.Schedule.Batches
	}
	perBatch, batches := run(1)
	if perBatch.Journaled != batches || perBatch.Syncs < perBatch.Journaled {
		t.Errorf("fsync per batch: journaled %d of %d batches with %d syncs",
			perBatch.Journaled, batches, perBatch.Syncs)
	}
	amortised, _ := run(16)
	if amortised.Journaled != batches || amortised.Syncs >= perBatch.Syncs {
		t.Errorf("fsync every 16: journaled %d of %d batches with %d syncs (per batch: %d)",
			amortised.Journaled, batches, amortised.Syncs, perBatch.Syncs)
	}
}

// TestStreamCrashResumeUnderFaults combines the journal with device
// fault injection: a crashed chaotic run resumed under the same chaos
// must still match the clean whole-database result bit for bit.
func TestStreamCrashResumeUnderFaults(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	withFaults := func(cfg *StreamConfig) { cfg.Policy.MaxRetries = 8 }
	faultedSys := func() *simt.System {
		sys := simt.NewSystem(simt.GTX580(), 3)
		applyFaults(t, sys, "dev0:at=0,at=2;dev1:at=1", 7)
		return sys
	}

	cfg := StreamConfig{BatchResidues: batchResidues,
		Checkpoint: &CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(1, checkpoint.WindowAfterSync)}}
	withFaults(&cfg)
	_, err := pl.RunMultiGPUStreamContext(context.Background(), faultedSys(), gpu.MemAuto, bytes.NewReader(fasta), cfg)
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("crashed run returned %v, want ErrInjectedCrash", err)
	}

	cfg = StreamConfig{BatchResidues: batchResidues,
		Checkpoint: &CheckpointConfig{Path: path, Resume: true}}
	withFaults(&cfg)
	res, err := pl.RunMultiGPUStreamContext(context.Background(), faultedSys(), gpu.MemAuto, bytes.NewReader(fasta), cfg)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	sameHits(t, "faulted crash-resume", whole, res)
}

// TestStreamCrashResumeUnderDMR crashes a run whose device flips bits
// (silent data corruption, repaired by dual modular redundancy) and
// resumes it: the journal must never hold a corrupt batch, so the
// resumed run matches the clean one.
func TestStreamCrashResumeUnderDMR(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	flippedSys := func() *simt.System {
		sys := simt.NewSystem(simt.GTX580(), 1)
		applyFaults(t, sys, "dev0:flip@launch=0,flip@launch=3", 7)
		return sys
	}

	_, err := pl.RunMultiGPUStreamContext(context.Background(), flippedSys(), gpu.MemAuto, bytes.NewReader(fasta), StreamConfig{
		BatchResidues: batchResidues,
		Verify:        VerifyDMR,
		Checkpoint:    &CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(2, checkpoint.WindowAfterAppend)},
	})
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("crashed run returned %v, want ErrInjectedCrash", err)
	}
	res, err := pl.RunMultiGPUStreamContext(context.Background(), flippedSys(), gpu.MemAuto, bytes.NewReader(fasta), StreamConfig{
		BatchResidues: batchResidues,
		Verify:        VerifyDMR,
		Checkpoint:    &CheckpointConfig{Path: path, Resume: true},
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	sameHits(t, "dmr crash-resume", whole, res)
}

// TestStreamResumeAfterResumeConverges crashes the original run AND the
// first resume; the second resume must complete and match.
func TestStreamResumeAfterResumeConverges(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	_, err := ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(1, checkpoint.WindowAfterSync)}, nil)
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("first crash: %v", err)
	}
	// The resume replays >=1 batch, appends one more, then crashes too.
	_, err = ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path, Resume: true, Crash: checkpoint.CrashAfter(1, checkpoint.WindowAfterAppend)}, nil)
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("second crash: %v", err)
	}
	res, err := ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path, Resume: true}, nil)
	if err != nil {
		t.Fatalf("second resume failed: %v", err)
	}
	sameHits(t, "resume-after-resume", whole, res)
}

// TestStreamResumeRefusesFingerprintMismatch re-chunks with a different
// residue budget on resume: the config fingerprint must not match and
// the run must refuse rather than corrupt the merge.
func TestStreamResumeRefusesFingerprintMismatch(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	_, err := ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(1, checkpoint.WindowAfterSync)}, nil)
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("crashed run returned %v, want ErrInjectedCrash", err)
	}

	_, err = ckptRun(t, pl, fasta, batchResidues/2, 2,
		&CheckpointConfig{Path: path, Resume: true}, nil)
	var fpErr *checkpoint.FingerprintError
	if !errors.As(err, &fpErr) {
		t.Fatalf("resume with different -batchres returned %v, want FingerprintError", err)
	}
}

// TestStreamResumeRefusesCorruptJournal flips one payload bit on disk:
// resume must fail with a checksum error, never merge the bad record.
func TestStreamResumeRefusesCorruptJournal(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	_, err := ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(2, checkpoint.WindowAfterSync)}, nil)
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("crashed run returned %v, want ErrInjectedCrash", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path, Resume: true}, nil)
	var ce *checkpoint.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("resume of corrupt journal returned %v, want CorruptError", err)
	}
}

// TestStreamDrainThenResume drains a journaled run before it starts and
// resumes it: the two runs together must produce the full result.
func TestStreamDrainThenResume(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	drain := make(chan struct{})
	close(drain)
	res, err := ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path}, func(cfg *StreamConfig) { cfg.Drain = drain })
	if err != nil {
		t.Fatalf("drained run surfaced an error: %v", err)
	}
	extra := res.Extra.(*MultiGPUStreamExtra)
	if !extra.Drained {
		t.Fatal("run not marked drained")
	}

	res, err = ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path, Resume: true}, nil)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	sameHits(t, "drain-then-resume", whole, res)
}

// TestStreamResumeExportsCheckpointMetrics pins the hmmer_ckpt_*
// counters after a crash-and-resume cycle: with fsync-per-append and a
// crash after N appends in the after-append window, the resume replays
// exactly N intact records and drops exactly one torn tail.
func TestStreamResumeExportsCheckpointMetrics(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	_, err := ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(2, checkpoint.WindowAfterAppend)}, nil)
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("crashed run returned %v, want ErrInjectedCrash", err)
	}

	reg := obs.NewRegistry()
	pl.Opts.Metrics = reg
	defer func() { pl.Opts.Metrics = nil }()
	_, err = ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: path, Resume: true}, nil)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	for name, want := range map[string]float64{
		"hmmer_ckpt_batches_replayed_total":     2,
		"hmmer_ckpt_batches_dropped_tail_total": 1,
	} {
		if v, ok := reg.Get(name); !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
	if v, ok := reg.Get("hmmer_ckpt_batches_journaled_total"); !ok || v < 1 {
		t.Errorf("hmmer_ckpt_batches_journaled_total = %v (present %v), want >= 1", v, ok)
	}
}

// TestStreamCheckpointRejectsAlignments: domain alignments are not
// encoded in journal records, so the combination must refuse upfront.
func TestStreamCheckpointRejectsAlignments(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	pl.Opts.ComputeAlignments = true
	defer func() { pl.Opts.ComputeAlignments = false }()
	_, err := ckptRun(t, pl, fasta, batchResidues, 2,
		&CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}, nil)
	if err == nil {
		t.Fatal("journaling with ComputeAlignments accepted")
	}
}

// TestStreamContextCancelAborts cancels the context before the run: the
// scheduler must abort with ctx's error rather than drain or hang.
func TestStreamContextCancelAborts(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := simt.NewSystem(simt.GTX580(), 2)
	_, err := pl.RunMultiGPUStreamContext(ctx, sys, gpu.MemAuto, bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestRunCPUContextCancel checks the per-sequence cancellation path of
// the host engine used by fallback and DMR reruns.
func TestRunCPUContextCancel(t *testing.T) {
	h, err := workload.Model("ckpt-cancel", 60, abc, 31)
	if err != nil {
		t.Fatal(err)
	}
	db, _, _ := clusteredDB(t, h, 30, 5, 11)
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = pl.searchHost(ctx, db, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CPU run returned %v, want context.Canceled", err)
	}
}
