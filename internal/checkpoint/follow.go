// Journal following: the hot-standby half of the checkpoint package.
// A Follower opens a live journal read-only and streams newly durable
// records to a second process (the standby coordinator of DESIGN §2j)
// while the primary is still appending. The frontier discipline makes
// tailing safe against every mid-append state the appender can leave
// behind:
//
//   - Poll only advances past complete, CRC-valid frames. A short
//     frame header, short body, or checksum mismatch at the tail is
//     treated as "the appender is mid-record" — Poll returns what is
//     complete and re-reads from the same frontier next time, so a
//     torn tail that is later overwritten by the real bytes (the
//     appender finishing its write) is picked up cleanly.
//   - Nothing before the frontier is ever re-interpreted, so a record
//     is delivered exactly once per Follower.
//   - TakeOver converts the read-only tail into an appending Journal
//     with Resume's strict semantics: the torn tail (if any) is
//     truncated, and a complete frame with a bad checksum — bit rot,
//     not a torn write — refuses with *CorruptError.
//
// The follower reads whatever bytes the OS makes visible; on a shared
// filesystem that is the page cache, which includes not-yet-fsynced
// appends. That is safe: every complete CRC-valid frame the primary
// wrote is a record the primary either acknowledged or was about to,
// and re-merging it on takeover is idempotent under the (seq, epoch)
// fence. "Newly fsynced" is therefore a lower bound on what Poll
// returns, not an upper one.
package checkpoint

import (
	"errors"
	"fmt"
	"os"
)

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Mode is the simulator mode this reader expects (see
	// Options.Mode); a journal stamped with a different mode refuses
	// with *ModeMismatchError.
	Mode byte
	// Offset, when nonzero, resumes tailing from a byte offset
	// previously returned by Follower.Offset — a restarted reader
	// skips records it already consumed. Zero starts just past the
	// header.
	Offset int64
}

// Follower tails a live journal. It is not safe for concurrent use.
type Follower struct {
	f    *os.File
	fp   Fingerprint
	mode byte
	// off is the read frontier: the file offset just past the last
	// complete, CRC-valid record returned by Poll.
	off int64
	// delivered counts records returned by Poll over the Follower's
	// lifetime.
	delivered int
	closed    bool
}

// OpenFollower opens the journal at path for tailing, validating its
// header against fp and opts.Mode exactly as Resume does. The file
// must already hold a complete header (Create fsyncs it before
// returning, so a journal that exists is header-complete).
func OpenFollower(path string, fp Fingerprint, opts FollowerOptions) (*Follower, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := readHeader(f, fp, opts.Mode); err != nil {
		f.Close()
		return nil, err
	}
	off := int64(headerSize)
	if opts.Offset > off {
		off = opts.Offset
	}
	return &Follower{f: f, fp: fp, mode: opts.Mode, off: off}, nil
}

// Poll reads every complete record appended since the previous Poll
// (or since opts.Offset) and returns them in journal order. An
// incomplete or checksum-failing tail is not an error — the appender
// may be mid-record, or the write may still be landing — so Poll
// returns the complete prefix and retries the tail on the next call.
// The only hard error is the file shrinking below the frontier, which
// means the journal was truncated or replaced out from under the
// reader.
func (fo *Follower) Poll() ([]Record, error) {
	if fo.closed {
		return nil, fmt.Errorf("checkpoint: follower is closed")
	}
	fi, err := fo.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	size := fi.Size()
	if size < fo.off {
		return nil, fmt.Errorf("checkpoint: journal shrank from %d to %d bytes: truncated or replaced underneath the follower", fo.off, size)
	}
	var recs []Record
	for {
		rec, next, err := readFrameAt(fo.f, fo.off, size)
		var ce *CorruptError
		if errors.Is(err, errTornFrame) || errors.As(err, &ce) {
			// The appender may be mid-record: a short frame, an
			// implausible length from a half-written header, or body
			// bytes still landing out of order. Wait for it to finish,
			// or for TakeOver's strict pass to judge the tail.
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		fo.delivered++
		fo.off = next
	}
}

// Offset returns the current read frontier — the file offset just past
// the last record Poll returned. Persist it to restart a reader
// mid-file via FollowerOptions.Offset.
func (fo *Follower) Offset() int64 { return fo.off }

// Delivered returns the number of records this Follower has returned
// from Poll over its lifetime.
func (fo *Follower) Delivered() int { return fo.delivered }

// Close releases the follower's file handle. TakeOver closes it
// implicitly.
func (fo *Follower) Close() error {
	if fo.closed {
		return nil
	}
	fo.closed = true
	return fo.f.Close()
}

// TakeOver promotes the follower into the journal's appender: the
// standby has decided the primary is dead and is assuming its commit
// log. The file is reopened read-write and settled by Resume's
// strict semantics — any records past the frontier not yet returned by
// Poll are returned here (tail records), a torn tail is truncated
// away (counted in Stats.DroppedTail), and a complete frame with a bad
// checksum refuses with *CorruptError, because appending after bit rot
// would wedge a corrupt record into the committed prefix. The follower
// is closed either way; on success the returned Journal appends from
// the settled tail and its Stats.Replayed counts every record tailed
// across the follower's whole life (Poll + tail), so takeover metrics
// match a plain Resume of the same journal.
func (fo *Follower) TakeOver(opts Options) (*Journal, []Record, error) {
	if fo.closed {
		return nil, nil, fmt.Errorf("checkpoint: follower is closed")
	}
	frontier := fo.off
	prior := fo.delivered
	fo.Close()

	f, err := os.OpenFile(fo.f.Name(), os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	opts.Mode = fo.mode
	if err := readHeader(f, fo.fp, fo.mode); err != nil {
		f.Close()
		return nil, nil, err
	}
	j, tail, err := settle(f, opts, frontier, prior)
	if err != nil {
		return nil, nil, err
	}
	j.stats.Replayed += prior
	return j, tail, nil
}
