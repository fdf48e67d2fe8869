package pipeline

// Hot-standby cluster streaming: the failover half of DESIGN §2j. A
// standby process tails the primary's checkpoint journal (shared file)
// and holds warm connections to the worker roster; when the primary
// dies — observed as the journal's flock lease freeing — the standby
// settles the journal tail, promotes the warm connections, and
// finishes the stream as a coordinator at a higher fencing epoch. The
// (seq, epoch) fence plus the workers' epoch memory guarantee no batch
// the primary committed is ever re-merged, and a primary that was
// merely paused cannot commit past the takeover.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
)

// StandbyClusterConfig shapes the standby side of a failover pair.
type StandbyClusterConfig struct {
	// Acquire blocks until this process holds the cluster leadership
	// lease. Nil uses an exclusive flock on "<journal>.lock"
	// (cluster.AcquireFileLeadership) — the kernel frees it the instant
	// the primary dies, however it dies. Tests substitute
	// channel-backed implementations.
	Acquire cluster.AcquireLeadership
	// Epoch is the fencing epoch the takeover coordinator runs at; it
	// must exceed the primary's. Zero means 2 (primary default + 1).
	Epoch uint64
	// PingEvery is the warm-connection keepalive cadence
	// (cluster.StandbyConfig.PingEvery).
	PingEvery time.Duration
	// TailPoll is how often the journal is re-polled while tailing and
	// how often an absent journal file is retried. Zero means
	// cluster.DefaultLeadershipPoll.
	TailPoll time.Duration
}

func (c *StandbyClusterConfig) epoch() uint64 {
	if c.Epoch > 0 {
		return c.Epoch
	}
	return 2
}

func (c *StandbyClusterConfig) tailPoll() time.Duration {
	if c.TailPoll > 0 {
		return c.TailPoll
	}
	return cluster.DefaultLeadershipPoll
}

// RunStandbyClusterStreamContext runs the hot-standby protocol to
// completion: warm the worker roster, tail the primary's journal,
// block on the leadership lease, then take over and finish the
// stream. The returned Result is byte-identical to what the primary
// would have produced had it survived — the standby re-chunks the same
// stream under the same config fingerprint, merges the primary's
// journaled batches from disk, and computes only the remainder.
//
// cfg.Checkpoint.Path must name the primary's journal (shared
// filesystem); the standby keeps journaling to it after takeover, so a
// second failover (or a crash-resume) layers on the same file.
func (pl *Pipeline) RunStandbyClusterStreamContext(ctx context.Context, r io.Reader, cfg StreamConfig, ccfg ClusterConfig, ha StandbyClusterConfig) (*Result, error) {
	if err := pl.vetClusterRun(cfg, ccfg); err != nil {
		return nil, err
	}
	ck := cfg.Checkpoint
	if ck == nil || ck.Path == "" {
		return nil, fmt.Errorf("pipeline: standby mode requires a checkpoint journal (the primary's commit log is the handoff medium)")
	}
	if ccfg.Epoch != 0 && ccfg.Epoch >= ha.epoch() {
		return nil, fmt.Errorf("pipeline: standby epoch %d must exceed the primary's %d", ha.epoch(), ccfg.Epoch)
	}
	acquire := ha.Acquire
	if acquire == nil {
		acquire = cluster.AcquireFileLeadership(ck.Path+".lock", ha.tailPoll())
	}
	fp := pl.Fingerprint(cfg)
	logf := ccfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Warm connections first: they are useful the moment the primary
	// dies, and the standby handshake also front-loads fingerprint
	// validation against every reachable worker.
	sb := cluster.NewStandby(cluster.StandbyConfig{
		Workers:     ccfg.Workers,
		Fingerprint: fp,
		Mode:        ccfg.Mode,
		PingEvery:   ha.PingEvery,
		Policy:      cfg.Policy,
		Logf:        ccfg.Logf,
	})
	sb.Start(ctx)
	defer sb.Close() // no-op after Promote

	// The leadership race runs while we tail: the lease frees when the
	// primary exits (cleanly or not), which is the takeover signal.
	type lease struct {
		release func()
		err     error
	}
	leaseCh := make(chan lease, 1)
	go func() {
		release, err := acquire(ctx)
		leaseCh <- lease{release, err}
	}()

	// Wait for the primary's journal to exist with a complete header,
	// then follow it. Header-level config errors are hard stops — this
	// standby was launched against the wrong run; an absent or
	// still-forming file is retried.
	var fo *checkpoint.Follower
	var got lease
	haveLease, waiting := false, false
	for fo == nil {
		f, err := checkpoint.OpenFollower(ck.Path, fp, checkpoint.FollowerOptions{Mode: ccfg.Mode})
		if err == nil {
			fo = f
			break
		}
		switch {
		case hardFollowerError(err):
			if haveLease {
				got.release()
			}
			return nil, err
		case haveLease:
			// Leadership, and after it still no journal: the primary died
			// (or never started) pre-header. There is nothing to take
			// over; refuse rather than silently running a fresh primary
			// under a flag that promised a takeover.
			got.release()
			return nil, fmt.Errorf("pipeline: standby acquired leadership but no journal exists at %s: primary never started a run", ck.Path)
		case !waiting:
			waiting = true
			logf("standby: no journal at %s yet, waiting for the primary to start", ck.Path)
		}
		select {
		case got = <-leaseCh:
			if got.err != nil {
				return nil, got.err
			}
			// The primary may have written its journal and died since the
			// failed open above, so look once more now that the lease
			// says it is gone for good.
			haveLease = true
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(ha.tailPoll()):
		}
	}
	defer fo.Close() // no-op after TakeOver
	logf("standby: following journal %s", ck.Path)

	// Tail until the lease is ours. Every complete, CRC-valid record
	// the primary commits lands in skip — on takeover those batches
	// merge from disk, never re-execute.
	skip := make(map[uint64]checkpoint.Record)
	tailed := 0
	absorb := func(recs []checkpoint.Record) error {
		for _, rec := range recs {
			if _, dup := skip[rec.Seq]; dup {
				return fmt.Errorf("pipeline: journal holds two records for batch %d: refusing to take over", rec.Seq)
			}
			skip[rec.Seq] = rec
			tailed++
		}
		return nil
	}
	for !haveLease {
		recs, err := fo.Poll()
		if err != nil {
			return nil, err
		}
		if err := absorb(recs); err != nil {
			return nil, err
		}
		select {
		case got = <-leaseCh:
			if got.err != nil {
				return nil, got.err
			}
			haveLease = true
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(ha.tailPoll()):
		}
	}
	defer got.release() // hold the lease for the whole takeover run

	// Takeover: settle the tail (the primary is dead; a torn last
	// record is its crash artefact, truncated exactly as Resume would),
	// absorb the settled records, and continue appending to the same
	// journal.
	journal, tail, err := fo.TakeOver(checkpoint.Options{SyncEvery: ck.SyncEvery, Crash: ck.Crash})
	if err != nil {
		return nil, err
	}
	if err := absorb(tail); err != nil {
		journal.Close()
		return nil, err
	}
	logf("standby: taking over: %d batches tailed from the primary, promoting %d warm workers at epoch %d",
		tailed, sb.Warm(), ha.epoch())

	ccfg.Workers = sb.Promote()
	ccfg.Epoch = ha.epoch()
	return pl.runClusterCore(ctx, r, cfg, ccfg, &streamRun{journal: journal, skip: skip},
		haState{failovers: 1, standbyTailed: tailed})
}

// hardFollowerError reports whether an OpenFollower failure is a
// config-level mismatch that retrying cannot fix.
func hardFollowerError(err error) bool {
	var fpe *checkpoint.FingerprintError
	var mme *checkpoint.ModeMismatchError
	var ve *checkpoint.VersionError
	var ce *checkpoint.CorruptError
	return errors.As(err, &fpe) || errors.As(err, &mme) ||
		errors.As(err, &ve) || errors.As(err, &ce)
}
