package pipeline

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/integrity"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/stats"
)

// batchSource walks a database as batches in stream order, calling
// emit once per batch, and stops with emit's first error.
type batchSource func(emit func(db *seq.Database) error) error

// fastaBatches re-chunks r into residue-budgeted batches. A resumed run
// re-chunks exactly as the original did (same parser, same budget —
// enforced by the config fingerprint), so batch ordinals and offsets
// line up with the journal's.
func (pl *Pipeline) fastaBatches(r io.Reader, batchResidues int64) batchSource {
	return func(emit func(db *seq.Database) error) error {
		return seq.StreamFASTAResidues(r, pl.Prof.Abc, batchResidues, emit)
	}
}

// streamBatch is one batch of a streamed run: its ordinal, the global
// database index of its first sequence (its hit indexes are rebased by
// it), and claim, which takes the one-shot commit token every attempt
// at the batch shares — nil when only one attempt can exist.
type streamBatch struct {
	seq, offset int
	db          *seq.Database
	claim       func() bool
}

func deviceBatch(b gpu.Batch) streamBatch {
	return streamBatch{seq: b.Seq, offset: b.Offset, db: b.DB, claim: b.Commit}
}

// BatchLaunches is the kernel launches of one committed batch of a
// streamed multi-device run.
type BatchLaunches struct {
	// Seq is the batch ordinal; Device the index of the device the
	// committed attempt ran on, which the host's goroutine schedule
	// decides.
	Seq, Device int
	// Launches is the MSV launch, then the Viterbi launch when the
	// batch had MSV survivors. On fault-free devices of one kind the
	// reports depend on the batch alone.
	Launches []*simt.LaunchReport
}

// streamRun is the state one streamed search shares between its
// producer, its executor's attempts and its tail.
type streamRun struct {
	// journal (nil: not journaled) receives every committed batch
	// before its merge; skip holds the records a previous run left
	// there, keyed by batch ordinal.
	journal *checkpoint.Journal
	skip    map[uint64]checkpoint.Record

	// seqs counts the sequences of the batches produced so far, replayed
	// the batches merged from the journal; the producer owns both.
	seqs, replayed int

	mu       sync.Mutex // guards final and launches
	final    Result
	launches []BatchLaunches
}

// produce walks src in stream order, numbering the batches. A batch
// the journal already holds merges from disk and is never executed;
// every other batch goes to submit, which may block for backpressure.
func (s *streamRun) produce(src batchSource, submit func(b streamBatch) error) error {
	seqNo := 0
	return src(func(db *seq.Database) error {
		if rec, ok := s.skip[uint64(seqNo)]; ok {
			if rec.Offset != uint64(s.seqs) || rec.NumSeqs != uint64(db.NumSeqs()) || rec.Residues != uint64(db.TotalResidues()) {
				return fmt.Errorf("pipeline: journal record for batch %d does not match the input stream (journal: offset %d, %d seqs, %d residues; stream: offset %d, %d seqs, %d residues): was the database file changed?",
					seqNo, rec.Offset, rec.NumSeqs, rec.Residues, s.seqs, db.NumSeqs(), db.TotalResidues())
			}
			res, err := DecodeResultPayload(rec.Payload)
			if err != nil {
				return fmt.Errorf("pipeline: journal record for batch %d: %v", seqNo, err)
			}
			s.mu.Lock()
			mergeBatch(&s.final, res, s.seqs)
			s.mu.Unlock()
			delete(s.skip, uint64(seqNo))
			s.replayed++
		} else if err := submit(streamBatch{seq: seqNo, offset: s.seqs, db: db}); err != nil {
			return err
		}
		seqNo++
		s.seqs += db.NumSeqs()
		return nil
	})
}

// commit is the single commit path of every executor (device worker,
// host fallback, DMR rerun, in-line batch, cluster worker, degraded
// local path): claim the batch's one-shot token, make the result
// durable, then merge; it reports whether this attempt merged. A
// watchdog-abandoned attempt can complete late, after the batch was
// reassigned — the token keeps the merge and its journal record
// exactly-once. An attempt hands over its Result or, from a remote
// worker, the encoded payload, which is validated before it is
// journaled (a corrupt worker payload must never become a durable
// record). The journal append happens strictly before the merge is
// acknowledged (write-ahead ordering), so a batch an executor counts
// complete is always recoverable; a crash between the two is resolved
// on resume by replay-then-skip. launched has no Launches for a host
// execution.
func (s *streamRun) commit(b streamBatch, res *Result, payload []byte, launched BatchLaunches) (bool, error) {
	if b.claim != nil && !b.claim() {
		return false, nil
	}
	if res == nil {
		var err error
		if res, err = DecodeResultPayload(payload); err != nil {
			return false, fmt.Errorf("pipeline: result payload for batch %d: %v", b.seq, err)
		}
	}
	if s.journal != nil {
		if payload == nil {
			payload = EncodeResultPayload(res)
		}
		// Hit indexes stay batch-local in the record (its Offset rebases
		// them on replay). Stage wall times are preserved as measured —
		// the work really was done, in the crashed run.
		err := s.journal.Append(checkpoint.Record{
			Seq:      uint64(b.seq),
			Offset:   uint64(b.offset),
			NumSeqs:  uint64(b.db.NumSeqs()),
			Residues: uint64(b.db.TotalResidues()),
			Payload:  payload,
		})
		if err != nil {
			return false, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mergeBatch(&s.final, res, b.offset)
	if launched.Launches != nil {
		s.launches = append(s.launches, launched)
	}
	return true, nil
}

// closeJournal closes the journal, if any. Every path out of a run
// defers it; repeating it after finish is harmless.
func (s *streamRun) closeJournal() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// finish is the tail of every streamed run whose executor returned
// cleanly: check the journal held nothing the stream did not, close
// it, finalize the merged Result. It returns the journal's counters
// when the run was journaled.
func (s *streamRun) finish(drained bool) (*Result, *checkpoint.Stats, error) {
	if len(s.skip) > 0 && !drained {
		return nil, nil, fmt.Errorf("pipeline: journal holds %d batches beyond the end of the input stream: was the database file changed?", len(s.skip))
	}
	var ckpt *checkpoint.Stats
	if s.journal != nil {
		// Surface close/sync errors: an unsynced tail the caller was
		// told is durable would break the resume contract.
		if err := s.closeJournal(); err != nil {
			return nil, nil, err
		}
		st := s.journal.Stats()
		ckpt = &st
	}
	finalizeStream(&s.final, s.seqs)
	sort.Slice(s.launches, func(i, j int) bool { return s.launches[i].Seq < s.launches[j].Seq })
	return &s.final, ckpt, nil
}

// runHostStream is the streamed run executed in line on the host CPU
// engine. ctx is checked before every batch and every sequence.
func (pl *Pipeline) runHostStream(ctx context.Context, engine string, src batchSource) (*Result, error) {
	root := pl.startSearch(engine, nil)
	defer root.End()
	run := &streamRun{}
	err := run.produce(src, func(b streamBatch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		batchSpan := root.Child(fmt.Sprintf("batch %d", b.seq),
			obs.Int("batch", int64(b.seq)),
			obs.Int("offset", int64(b.offset)),
			obs.Int("seqs", int64(b.db.NumSeqs())),
			obs.Int("residues", b.db.TotalResidues()))
		res, err := pl.searchHost(ctx, b.db, batchSpan)
		batchSpan.End()
		if err != nil {
			return err
		}
		_, err = run.commit(b, res, nil, BatchLaunches{})
		return err
	})
	if err != nil {
		return nil, err
	}
	final, _, err := run.finish(false)
	if err != nil {
		return nil, err
	}
	final.Record(pl.Opts.Metrics)
	return final, nil
}

// RunCPUStream searches a FASTA stream with the CPU engine in batches
// of batchSize sequences, so the database never needs to fit in memory
// (the paper's Env_nr holds 6.5M sequences). Stage statistics are
// merged across batches; E-values are computed against the final total
// sequence count and the hit list is re-sorted at the end. Hit indexes
// are global (position in the stream).
func (pl *Pipeline) RunCPUStream(r io.Reader, batchSize int) (*Result, error) {
	return pl.runHostStream(context.Background(), "cpu-stream", func(emit func(db *seq.Database) error) error {
		return seq.StreamFASTA(r, pl.Prof.Abc, batchSize, emit)
	})
}

// VerifyMode selects the result-integrity policy of a streamed
// multi-device run: what the pipeline does about silent data
// corruption (bit flips on non-ECC devices that leave the launch
// successful but a score wrong).
type VerifyMode int

const (
	// VerifyOff runs no integrity checks: device results merge as-is.
	// This is the zero value, matching the pre-verification behaviour.
	VerifyOff VerifyMode = iota
	// VerifyGuards runs the cheap per-batch guards (grid membership,
	// overflow exactness, pipeline score ordering; see package
	// integrity) on every device batch. A failed batch is discarded
	// before merge and re-executed on another device, consuming the
	// batch's retry budget.
	VerifyGuards
	// VerifyDMR runs the same guards but re-executes a failed batch on
	// the host CPU immediately (dual modular redundancy on suspicion
	// only), off the device retry budget. The host engine is
	// bit-identical to the device path, so the rerun's merge restores
	// the fault-free result.
	VerifyDMR
)

// ParseVerifyMode parses the CLI spelling of an integrity policy (the
// -verify flag of hmmsearch and hmmserved).
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch s {
	case "off":
		return VerifyOff, nil
	case "guards":
		return VerifyGuards, nil
	case "dmr":
		return VerifyDMR, nil
	}
	return 0, fmt.Errorf("pipeline: unknown -verify mode %q (want off, guards, or dmr)", s)
}

// StreamConfig configures a streamed multi-device search.
type StreamConfig struct {
	// BatchResidues is the residue budget per batch (see
	// seq.StreamFASTAResidues); batches are the scheduler's work unit,
	// so this sets the load-balancing granularity: smaller batches
	// balance better but pay more per-batch launch overhead.
	BatchResidues int64
	// QueueDepth bounds parsed-but-unprocessed batches (backpressure);
	// 0 means two per device. Peak input memory is roughly
	// (QueueDepth + devices) * BatchResidues bytes of residues.
	QueueDepth int

	// Policy is the run's retry budget, breaker, backoff and clock
	// (dispatch's defaults for zero fields), carried whole to the
	// device scheduler or the cluster coordinator and its standby.
	Policy dispatch.Policy
	// BatchTimeout is the per-batch watchdog deadline (0: disabled).
	BatchTimeout time.Duration
	// DisableFallback turns off the host-CPU fallback engaged when
	// every device is quarantined; the run then fails with
	// gpu.ErrAllQuarantined instead of completing on the host.
	DisableFallback bool
	// Verify selects the silent-data-corruption policy (off by
	// default).
	Verify VerifyMode

	// Checkpoint, when non-nil, journals every committed batch to a
	// crash-safe on-disk log and can resume an interrupted run from it
	// (see CheckpointConfig and DESIGN §2e).
	Checkpoint *CheckpointConfig
	// Drain, when non-nil, requests a graceful stop once closed:
	// in-flight batches finish (and are journaled), no further batches
	// are submitted, and the run returns with
	// MultiGPUStreamExtra.Drained set instead of an error — the SIGINT
	// path, leaving a journal a later -resume can continue from.
	Drain <-chan struct{}
}

// MultiGPUStreamExtra carries the streamed multi-device run's
// observability: the scheduler's utilization report and every kernel
// launch, per batch, for the perf model.
type MultiGPUStreamExtra struct {
	// Schedule reports wall time and per-device utilization (busy wall
	// time, residues processed, batches served).
	Schedule *gpu.ScheduleReport
	// Batches holds the kernel launches of every batch a device
	// committed, in batch order. Batches merged from the journal or
	// executed on the host (fallback, DMR rerun) have no entry.
	Batches []BatchLaunches
	// Drained reports that the run stopped early at the caller's
	// request (StreamConfig.Drain closed): every merged batch is
	// durable, but the stream was not fully processed, so the Result is
	// partial and a journaled run can be resumed.
	Drained bool
	// Replayed is the number of batches merged from the checkpoint
	// journal instead of being executed (0 for a fresh run).
	Replayed int
	// Checkpoint carries the journal's counters when journaling was
	// enabled.
	Checkpoint *checkpoint.Stats

	// spec is the devices' and kernel the series label, for the
	// modelled time Record derives from Batches.
	spec   simt.DeviceSpec
	kernel string
}

// RunMultiGPUStreamContext searches a FASTA stream across all devices of a
// system: the stream is chunked into residue-balanced batches, host
// parsing overlaps device execution through a bounded queue, and each
// batch runs on whichever device frees up first (dynamic load
// balancing, replacing the static Partition split of RunMultiGPU for
// streamed input). Filter stages run on the devices, the Forward stage
// on the host. Results are merged exactly as RunCPUStream merges them:
// global hit indexes, E-values rescaled to the final sequence count,
// deterministic final sort.
//
// The run is fault-tolerant per cfg: transient device faults are
// retried (preferring a different device), repeatedly failing devices
// are quarantined, and once every device is quarantined the remaining
// batches complete on the host CPU (unless cfg.DisableFallback).
// Because both engines are deterministic and merges are gated by each
// batch's commit token, a faulted run's Result is bit-identical to the
// fault-free run's.
//
// Cancelling ctx aborts the scheduler (producer and workers) and
// returns ctx's error. With cfg.Checkpoint set the run journals every
// committed batch and can resume an interrupted run; with cfg.Drain
// set it stops gracefully when that channel closes.
func (pl *Pipeline) RunMultiGPUStreamContext(ctx context.Context, sys *simt.System, mem gpu.MemConfig, r io.Reader, cfg StreamConfig) (*Result, error) {
	if cfg.BatchResidues < 1 {
		return nil, fmt.Errorf("pipeline: stream batch residues %d < 1", cfg.BatchResidues)
	}
	if sys == nil || len(sys.Devices) == 0 {
		return nil, fmt.Errorf("pipeline: no devices")
	}
	// The journal opens (and replays) before any device work starts:
	// a fingerprint, mode, or corruption error must abort the run
	// before it spends hours recomputing.
	run, err := pl.openStreamRun(cfg, byte(sys.Devices[0].Mode))
	if err != nil {
		return nil, err
	}
	return pl.runDeviceStream(ctx, "multigpu-stream", "stream", sys, mem,
		pl.fastaBatches(r, cfg.BatchResidues), cfg, run)
}

// runDeviceStream is the streamed run with gpu.Scheduler as executor:
// each batch of src runs the cascade on whichever device of sys frees
// up first, under cfg's fault policy. engine names the search span,
// kernel the modelled-time series.
func (pl *Pipeline) runDeviceStream(ctx context.Context, engine, kernel string, sys *simt.System, mem gpu.MemConfig,
	src batchSource, cfg StreamConfig, run *streamRun) (*Result, error) {

	defer run.closeJournal()
	pl.attachProfiler(mem, sys.Devices...)
	workers := make([]*gpu.DeviceWorker, len(sys.Devices))
	for i, dev := range sys.Devices {
		workers[i] = gpu.NewDeviceWorker(dev, mem, pl.Opts.Workers, pl.MSV, pl.Vit)
	}

	root := pl.startSearch(engine, nil)
	defer root.End()

	sched := &gpu.Scheduler{
		Sys:          sys,
		QueueDepth:   cfg.QueueDepth,
		Trace:        root,
		Policy:       cfg.Policy,
		BatchTimeout: cfg.BatchTimeout,
		Drain:        cfg.Drain,
	}
	// Host re-execution: the CPU engine computes the same hits as the
	// device path, so a batch drained here merges bit-identically.
	// Shared by the all-quarantined fallback and the DMR rerun. The
	// per-sequence ctx check means a cancelled run stops promptly even
	// when the host is grinding through a fallback batch.
	hostRerun := func(b gpu.Batch) (bool, error) {
		res, err := pl.searchHost(ctx, b.DB, b.Trace)
		if err != nil {
			return false, err
		}
		return run.commit(deviceBatch(b), res, nil, BatchLaunches{})
	}
	if !cfg.DisableFallback {
		sched.Fallback = hostRerun
	}
	var chk *integrity.Checker
	if cfg.Verify != VerifyOff {
		chk = &integrity.Checker{MSV: pl.MSV, Vit: pl.Vit}
	}
	if cfg.Verify == VerifyDMR {
		sched.DMR = hostRerun
	}
	rep, err := sched.RunBatches(ctx,
		func(submit func(b gpu.Batch) error) error {
			return run.produce(src, func(b streamBatch) error {
				return submit(gpu.Batch{Seq: b.seq, Offset: b.offset, DB: b.db})
			})
		},
		func(devIdx int, _ *simt.Device, b gpu.Batch) error {
			// b.Trace is the batch's span on the device track; stage and
			// kernel spans nest under it.
			filters := &deviceFilters{w: workers[devIdx]}
			res, err := pl.cascade(ctx, filters, chk, b.DB, b.Trace)
			if err != nil {
				return err
			}
			_, err = run.commit(deviceBatch(b), res, nil,
				BatchLaunches{Seq: b.Seq, Device: devIdx, Launches: filters.launches()})
			return err
		})
	if err != nil {
		return nil, err
	}
	final, ckpt, err := run.finish(rep.Drained)
	if err != nil {
		return nil, err
	}
	final.Extra = &MultiGPUStreamExtra{Schedule: rep, Batches: run.launches,
		Drained: rep.Drained, Replayed: run.replayed, Checkpoint: ckpt,
		spec: sys.Devices[0].Spec, kernel: kernel}
	final.Record(pl.Opts.Metrics)
	return final, nil
}

// mergeBatch folds one batch's result into the stream-wide result,
// rebasing hit indexes by the batch's global offset.
func mergeBatch(final, res *Result, offset int) {
	mergeStage(&final.MSV, res.MSV)
	mergeStage(&final.Viterbi, res.Viterbi)
	mergeStage(&final.Forward, res.Forward)
	for _, h := range res.Hits {
		h.Index += offset
		final.Hits = append(final.Hits, h)
	}
}

// finalizeStream rescales E-values to the full stream's sequence count
// (they were computed per batch) and applies the deterministic final
// sort, so a streamed run reports exactly what the whole-database run
// reports regardless of batching or device assignment.
func finalizeStream(final *Result, totalSeqs int) {
	for i := range final.Hits {
		final.Hits[i].EValue = stats.EValue(final.Hits[i].PValue, totalSeqs)
	}
	sortHits(final.Hits)
}

func mergeStage(dst *StageStats, src StageStats) {
	dst.In += src.In
	dst.Out += src.Out
	dst.Cells += src.Cells
	dst.Wall += src.Wall
}
