// Package checkpoint implements a crash-safe write-ahead journal of
// per-batch results for the streamed search pipeline. The host process
// of a multi-hour multi-device run is all-or-nothing without it: the
// devices are fault-tolerant (retry, quarantine, DMR), but a host
// crash discards every committed batch. The journal closes that gap
// with the classic WAL contract — a batch's result record is appended,
// checksummed and fsync'd *before* the batch's merge is acknowledged,
// so any batch the scheduler counted complete is durably recorded.
//
// On restart the journal is replayed: completed batches merge from
// disk and are skipped by the producer, so the resumed run's output is
// byte-identical to an uninterrupted run. Replay tolerates exactly one
// kind of damage — a truncated tail record, the signature of dying
// mid-append — by dropping it; anything else (a flipped bit inside a
// framed record, a foreign config fingerprint) refuses to resume with
// a typed error, because silently merging a corrupt or mismatched
// record would be worse than rerunning the whole search.
//
// The journal is the tree's one durable record log: streamed and
// cluster searches journal their batches here, and hmmserved's drain
// journal (internal/serve) is a Journal of refused queries under a
// fixed fingerprint that names it.
//
// File layout:
//
//	magic (12 bytes) | fingerprint (32 bytes) | sim mode (1 byte) | record*
//	record: u32 frame length | u32 CRC-32 (IEEE) of body | body  (package frame)
//	body:   u64 seq | u64 offset | u64 numSeqs | u64 residues | payload
//
// All integers are little-endian. The payload is the engine's opaque
// encoding of the batch result; the journal never interprets it.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"hmmer3gpu/internal/frame"
	"hmmer3gpu/internal/obs"
)

// magic identifies a journal file; the trailing byte is the format
// version. Version 2 added the simulator-mode byte after the
// fingerprint, so a resumed run can never silently mix cost models.
const magic = "HMM3GPUCKPT\x02"

// headerSize is the byte length of the magic + fingerprint + mode
// prologue.
const headerSize = len(magic) + 32 + 1

// bodyFixedSize is the fixed portion of a record body (seq, offset,
// numSeqs, residues) preceding the payload.
const bodyFixedSize = 32

// MaxRecordSize bounds a single record's frame so a corrupt length
// field cannot force a multi-gigabyte allocation during replay.
const MaxRecordSize = 1 << 30

// Fingerprint identifies the run configuration a journal belongs to:
// the model, calibration, and chunking parameters that determine batch
// identity and batch results. Resuming under a different fingerprint
// is refused — the journaled records would merge into a different
// stream.
type Fingerprint [32]byte

func (f Fingerprint) String() string { return fmt.Sprintf("%x", f[:8]) }

// Record is one journaled batch result.
type Record struct {
	// Seq is the batch's ordinal in stream order; the producer's
	// deterministic chunking makes it stable across runs.
	Seq uint64
	// Offset is the global database index of the batch's first
	// sequence; replayed hit indexes are rebased by it.
	Offset uint64
	// NumSeqs and Residues describe the batch's extent, cross-checked
	// against the re-chunked stream on resume.
	NumSeqs  uint64
	Residues uint64
	// Payload is the engine's opaque encoding of the batch result.
	Payload []byte
}

// CorruptError reports a framed record whose checksum or structure is
// wrong — damage replay must not paper over.
type CorruptError struct {
	// Index is the record's ordinal in the journal (0-based).
	Index int
	// Off is the file offset of the record's frame header.
	Off int64
	// Reason describes the damage.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: record %d at offset %d corrupt: %s", e.Index, e.Off, e.Reason)
}

// FingerprintError reports a journal written under a different run
// configuration (model, -batchres, calibration, ...).
type FingerprintError struct {
	Want, Got Fingerprint
}

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("checkpoint: journal fingerprint %s does not match this run's configuration %s (different model, -batchres, or thresholds): refusing to resume",
		e.Got, e.Want)
}

// ModeMismatchError reports a journal written under a different
// simulator mode (-sim fast vs cycles). The two modes are
// result-identical by construction, but a resumed run that silently
// mixed cost models would corrupt every timing artifact (traces,
// metrics, benchmark records), so the mix is refused explicitly.
type ModeMismatchError struct {
	// Want is this run's mode; Got is the journal's.
	Want, Got byte
}

// modeName renders the journal's mode byte with the CLI spelling used
// by the -sim flag (the only two values current writers produce).
func modeName(m byte) string {
	switch m {
	case 0:
		return "cycles"
	case 1:
		return "fast"
	}
	return fmt.Sprintf("mode-%d", m)
}

func (e *ModeMismatchError) Error() string {
	return fmt.Sprintf("checkpoint: journal was written with -sim %s but this run uses -sim %s: refusing to resume across cost models (rerun with -sim %s, or start fresh without -resume)",
		modeName(e.Got), modeName(e.Want), modeName(e.Got))
}

// VersionError reports a journal written by a different format version
// of this code (the magic matched but the version byte did not).
type VersionError struct {
	Want, Got byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: journal format version %d, this build reads version %d: refusing to resume", e.Got, e.Want)
}

// Stats counts the journal's activity for one run, exported through
// internal/obs.
type Stats struct {
	// Journaled is the number of records appended (and made durable)
	// by this run.
	Journaled int
	// Replayed is the number of records recovered from the journal on
	// resume.
	Replayed int
	// DroppedTail is the number of truncated tail records dropped
	// during replay (0 or 1: only the final record can be torn).
	DroppedTail int
	// Syncs is the number of fsync calls issued.
	Syncs int
}

// Record merges the checkpoint counters into reg. All three headline
// counters are always emitted, so a clean run exports explicit zeros.
func (s Stats) Record(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.AddInt("hmmer_ckpt_batches_journaled_total", int64(s.Journaled))
	reg.AddInt("hmmer_ckpt_batches_replayed_total", int64(s.Replayed))
	reg.AddInt("hmmer_ckpt_batches_dropped_tail_total", int64(s.DroppedTail))
	reg.AddInt("hmmer_ckpt_syncs_total", int64(s.Syncs))
	reg.Help("hmmer_ckpt_batches_journaled_total",
		"batch results appended and fsync'd to the crash-recovery journal")
	reg.Help("hmmer_ckpt_batches_replayed_total",
		"batch results recovered from the journal on resume")
	reg.Help("hmmer_ckpt_batches_dropped_tail_total",
		"truncated tail records dropped during journal replay")
	reg.Help("hmmer_ckpt_syncs_total",
		"fsync calls issued by the journal")
}

// Options configures a journal.
type Options struct {
	// SyncEvery is the fsync cadence: 1 (or 0) syncs after every
	// append — the full WAL guarantee, one fsync per batch — while N>1
	// amortises the fsync over N appends, trading the last <N batches
	// for throughput (they re-execute on resume; correctness is
	// unaffected because un-synced batches are simply not skipped).
	SyncEvery int
	// Crash, when non-nil, injects a crash at a chosen append and
	// window (see CrashPlan) for testing every recovery path.
	Crash *CrashPlan
	// Mode is the simulator mode the run executes under (the byte value
	// of simt.Mode: 0 cycles, 1 fast). It is stamped into the journal
	// header next to the fingerprint; Resume refuses a journal whose
	// mode differs with a *ModeMismatchError, so a resumed run can
	// never silently mix cost models.
	Mode byte
}

func (o Options) syncEvery() int {
	if o.SyncEvery < 1 {
		return 1
	}
	return o.SyncEvery
}

// Journal is an append-only, checksummed, fsync'd record log. Appends
// are serialised internally; the scheduler's device workers commit
// concurrently.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	opts    Options
	written int64 // bytes written (may be ahead of synced)
	synced  int64 // bytes known durable
	pending int   // appends since the last fsync
	appends int   // total appends attempted (crash-plan ordinal)
	crashed bool
	stats   Stats
}

// Create starts a fresh journal at path (truncating any previous one)
// stamped with the run's fingerprint. The header is fsync'd before
// Create returns, so an empty journal is already well-formed.
func Create(path string, fp Fingerprint, opts Options) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(append(append([]byte(magic), fp[:]...), opts.Mode)); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: writing header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: syncing header: %w", err)
	}
	j := &Journal{f: f, opts: opts, written: int64(headerSize), synced: int64(headerSize)}
	j.stats.Syncs++
	return j, nil
}

// Resume replays the journal at path and reopens it for appending.
// Every intact record is returned in journal (commit) order; a
// truncated tail record is dropped (counted in Stats.DroppedTail) and
// the file truncated back to its last intact record, durably, so
// subsequent appends start from a clean frame boundary. A checksum
// failure, structural damage, or a fingerprint mismatch aborts with a
// typed error — those journals must not be resumed from.
func Resume(path string, fp Fingerprint, opts Options) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	fail := func(err error) (*Journal, []Record, error) {
		f.Close()
		return nil, nil, err
	}
	if err := readHeader(f, fp, opts.Mode); err != nil {
		return fail(err)
	}
	if _, err := f.Seek(int64(headerSize), io.SeekStart); err != nil {
		return fail(fmt.Errorf("checkpoint: %w", err))
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fail(fmt.Errorf("checkpoint: %w", err))
	}
	j := &Journal{f: f, opts: opts}
	recs, n, err := readRecords(data, int64(headerSize))
	if err == io.ErrUnexpectedEOF {
		j.stats.DroppedTail++
	} else if err != nil {
		return fail(err)
	}
	off := int64(headerSize + n)
	if err := f.Truncate(off); err != nil {
		return fail(fmt.Errorf("checkpoint: truncating torn tail: %w", err))
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return fail(fmt.Errorf("checkpoint: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("checkpoint: %w", err))
	}
	j.stats.Syncs++
	j.written, j.synced = off, off
	j.stats.Replayed = len(recs)
	return j, recs, nil
}

// readHeader validates the journal prologue at the start of f.
func readHeader(f *os.File, fp Fingerprint, mode byte) error {
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("checkpoint: journal header unreadable (file shorter than %d bytes): %w", headerSize, err)
	}
	r := frame.NewReader(hdr)
	name, version := string(r.Bytes(uint64(len(magic)-1))), r.U8()
	var got Fingerprint
	copy(got[:], r.Bytes(32))
	m := r.U8()
	switch {
	case name != magic[:len(magic)-1]:
		return fmt.Errorf("checkpoint: not a journal file (bad magic)")
	case version != magic[len(magic)-1]:
		return &VersionError{Want: magic[len(magic)-1], Got: version}
	case got != fp:
		return &FingerprintError{Want: fp, Got: got}
	case m != mode:
		return &ModeMismatchError{Want: mode, Got: m}
	}
	return nil
}

// journalFrame bounds a record frame's body: the fixed record prefix,
// then at most MaxRecordSize bytes in all.
var journalFrame = frame.Limits{Min: bodyFixedSize, Max: MaxRecordSize}

// readRecords decodes the record frames in data, which starts at file
// offset off, up to the first that is not whole. It returns those
// records, the bytes they span, and why it stopped: nil at the end of
// data, io.ErrUnexpectedEOF at a torn frame, or a *CorruptError whose
// Index is the bad frame's ordinal in data.
func readRecords(data []byte, off int64) ([]Record, int, error) {
	var recs []Record
	n := 0
	for n < len(data) {
		body, rest, err := journalFrame.Decode(data[n:])
		var ce *frame.CorruptError
		if errors.As(err, &ce) {
			return recs, n, &CorruptError{Index: len(recs), Off: off + int64(n), Reason: ce.Reason}
		}
		if err != nil {
			return recs, n, err
		}
		r := frame.NewReader(body) // journalFrame's Min holds the fixed prefix
		recs = append(recs, Record{Seq: r.U64(), Offset: r.U64(), NumSeqs: r.U64(), Residues: r.U64(), Payload: r.Rest()})
		n = len(data) - len(rest)
	}
	return recs, n, nil
}

// Append journals one batch result. The record is made durable (per
// the SyncEvery cadence) before Append returns, which is what lets the
// caller acknowledge the batch's merge afterwards. Appends after an
// injected crash keep failing with ErrInjectedCrash, modelling a dead
// process.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.crashed {
		return ErrInjectedCrash
	}
	ordinal := j.appends
	j.appends++

	if j.opts.Crash.fires(ordinal, WindowBeforeAppend) {
		return j.crashLocked(0)
	}

	body := make([]byte, 0, bodyFixedSize+len(rec.Payload))
	for _, v := range []uint64{rec.Seq, rec.Offset, rec.NumSeqs, rec.Residues} {
		body = binary.LittleEndian.AppendUint64(body, v)
	}
	body = append(body, rec.Payload...)
	framed := frame.Append(make([]byte, 0, frame.HeaderSize+len(body)), body)

	if _, err := j.f.Write(framed); err != nil {
		return fmt.Errorf("checkpoint: append: %w", err)
	}
	j.written += int64(len(framed))

	if j.opts.Crash.fires(ordinal, WindowAfterAppend) {
		// Died after write(2), before fsync: the record sits in the page
		// cache. Power loss can persist any prefix; keep a torn half so
		// replay exercises the truncated-tail path.
		return j.crashLocked(int64(len(framed)) / 2)
	}

	j.pending++
	if j.pending >= j.opts.syncEvery() {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("checkpoint: fsync: %w", err)
		}
		j.stats.Syncs++
		j.pending = 0
		j.synced = j.written
	}

	if j.opts.Crash.fires(ordinal, WindowAfterSync) {
		// Died after the record was durable but before the merge was
		// acknowledged: resume must replay it, and the producer must
		// skip it — the duplicate-merge window.
		return j.crashLocked(0)
	}

	j.stats.Journaled++
	return nil
}

// crashLocked simulates the host dying with unsynced page cache lost:
// the file is cut back to the synced length plus tornExtra bytes of
// the unsynced tail, and every later Append fails.
func (j *Journal) crashLocked(tornExtra int64) error {
	j.crashed = true
	keep := j.synced + tornExtra
	if keep > j.written {
		keep = j.written
	}
	if err := j.f.Truncate(keep); err != nil {
		return fmt.Errorf("checkpoint: simulating crash: %w", err)
	}
	j.f.Sync()
	return ErrInjectedCrash
}

// Sync forces any batched appends to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.crashed || j.pending == 0 {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: fsync: %w", err)
	}
	j.stats.Syncs++
	j.pending = 0
	j.synced = j.written
	return nil
}

// Close syncs any batched appends and closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.syncLocked()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("checkpoint: %w", cerr)
	}
	return nil
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Size returns the journal's current byte length (written, not
// necessarily synced).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.written
}

// Exists reports whether a journal file is present at path.
func Exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
