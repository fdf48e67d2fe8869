// Journal following: a read-only tail of a live journal. A Follower
// returns newly complete records while the appender is still writing;
// Poll only advances past complete, CRC-valid frames, so a torn or
// checksum-failing tail reads as "the appender is mid-record" and is
// read again from the same frontier next time.
package checkpoint

import (
	"fmt"
	"os"
)

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Mode is the simulator mode this reader expects (see
	// Options.Mode); a journal stamped with a different mode refuses
	// with *ModeMismatchError.
	Mode byte
}

// Follower tails a live journal. It is not safe for concurrent use.
type Follower struct {
	f *os.File
	// off is the read frontier: the file offset just past the last
	// complete, CRC-valid record returned by Poll.
	off    int64
	closed bool
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
	return &Follower{f: f, off: int64(headerSize)}, nil
}

// Poll reads every complete record appended since the previous Poll
// and returns them in journal order. An incomplete or
// checksum-failing tail is not an error — the appender may be
// mid-record, or the write may still be landing — so Poll returns the
// complete prefix and retries the tail on the next call. The only hard
// error is the file shrinking below the frontier, which means the
// journal was truncated or replaced out from under the reader.
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
	data := make([]byte, size-fo.off)
	if _, err := fo.f.ReadAt(data, fo.off); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	// A torn or corrupt tail is the appender mid-record: keep what is
	// whole and read the tail again next time.
	recs, n, _ := readRecords(data, fo.off)
	fo.off += int64(n)
	return recs, nil
}

// Close releases the follower's file handle.
func (fo *Follower) Close() error {
	if fo.closed {
		return nil
	}
	fo.closed = true
	return fo.f.Close()
}
