package pipeline

// Hot-standby cluster streaming: the failover half of DESIGN §2j. A
// standby process waits on the primary's leadership lease, checking
// meanwhile that the primary's checkpoint journal (shared file)
// belongs to this run. When the primary dies — observed as the
// journal's flock lease freeing — the standby resumes the journal
// exactly as -resume does, dials the worker roster, and finishes the
// stream as a coordinator at a higher fencing epoch. The (seq, epoch)
// fence plus the workers' epoch memory guarantee no batch the primary
// committed is ever re-merged, and a primary that was merely paused
// cannot commit past the takeover.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/dispatch"
)

// StandbyClusterConfig shapes the standby side of a failover pair.
type StandbyClusterConfig struct {
	// Acquire blocks until this process holds the cluster leadership
	// lease. Nil uses an exclusive flock on "<journal>.lock"
	// (cluster.AcquireFileLeadership) — the kernel frees it the instant
	// the primary dies, however it dies. Tests substitute
	// channel-backed implementations. Either way it must return once
	// its context is done.
	Acquire cluster.AcquireLeadership
	// Epoch is the fencing epoch the takeover coordinator runs at; it
	// must exceed the primary's. Zero means 2 (primary default + 1).
	Epoch uint64
	// Poll is how often an absent journal is looked for again (on the
	// run's Policy.Clock) and, with the default Acquire, how often the
	// lease is retried. Zero means cluster.DefaultLeadershipPoll.
	Poll time.Duration
}

func (c *StandbyClusterConfig) epoch() uint64 {
	if c.Epoch > 0 {
		return c.Epoch
	}
	return 2
}

func (c *StandbyClusterConfig) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return cluster.DefaultLeadershipPoll
}

// RunStandbyClusterStreamContext runs the hot-standby protocol to
// completion: check the primary's journal header, block on the
// leadership lease, then resume the journal and finish the stream. The
// returned Result is byte-identical to what the primary would have
// produced had it survived — the standby re-chunks the same stream
// under the same config fingerprint, merges the primary's journaled
// batches from disk, and computes only the remainder. Takeover dials
// ccfg.Workers afresh: each worker's hello at the higher epoch is what
// fences the old primary.
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
		acquire = cluster.AcquireFileLeadership(ck.Path+".lock", ha.poll())
	}
	fp := pl.Fingerprint(cfg)
	logf := ccfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The leadership race runs while we wait: the lease frees when the
	// primary exits (cleanly or not), which is the takeover signal. It
	// runs under its own context, so however this call returns, the
	// race is over and a lease it won is given back: at the end of the
	// takeover run, or at once if the standby gave up before it.
	type lease struct {
		release func()
		err     error
	}
	leaseCtx, stopLease := context.WithCancel(ctx)
	leaseCh := make(chan lease, 1)
	go func() {
		release, err := acquire(leaseCtx)
		leaseCh <- lease{release, err}
	}()
	var got lease
	received := false
	defer func() {
		stopLease()
		if !received {
			got = <-leaseCh
		}
		if got.err == nil {
			got.release()
		}
	}()

	// Until the lease is ours, check the journal header, retrying an
	// absent or still-forming file. A header-level config error is a
	// hard stop: this standby was launched against the wrong run.
	checked, waiting := false, false
	for !received {
		var retry <-chan time.Time
		if !checked {
			fo, err := checkpoint.OpenFollower(ck.Path, fp, checkpoint.FollowerOptions{Mode: ccfg.Mode})
			switch {
			case err == nil:
				fo.Close()
				checked = true
				logf("standby: journal %s belongs to this run, waiting for the lease", ck.Path)
			case hardFollowerError(err):
				return nil, err
			default:
				if !waiting {
					waiting = true
					logf("standby: no journal at %s yet, waiting for the primary to start", ck.Path)
				}
				retry = dispatch.OrWall(cfg.Policy.Clock).After(ha.poll())
			}
		}
		select {
		case got = <-leaseCh:
			received = true
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-retry:
		}
	}
	if got.err != nil {
		return nil, got.err
	}

	// The primary is gone for good. It may have written its journal
	// and died since the last look; with no journal at all there is
	// nothing to take over, and the flag promised a takeover, not a
	// fresh primary.
	if !checkpoint.Exists(ck.Path) {
		return nil, fmt.Errorf("pipeline: standby acquired leadership but no journal exists at %s: primary never started a run", ck.Path)
	}
	// Takeover is -resume: a torn last record is the primary's crash
	// artefact, truncated exactly as a resumed run truncates it, and
	// every record read merges from disk instead of re-executing.
	resumed := *ck
	resumed.Resume = true
	cfg.Checkpoint = &resumed
	run, err := pl.openStreamRun(cfg, ccfg.Mode)
	if err != nil {
		return nil, err
	}
	logf("standby: taking over: %d batches read from the primary's journal, dialling %d workers at epoch %d",
		len(run.skip), len(ccfg.Workers), ha.epoch())

	ccfg.Epoch = ha.epoch()
	return pl.runClusterCore(ctx, r, cfg, ccfg, run,
		haState{failovers: 1, standbyTailed: len(run.skip)})
}

// hardFollowerError reports whether a journal header failure is a
// config-level mismatch that retrying cannot fix.
func hardFollowerError(err error) bool {
	var fpe *checkpoint.FingerprintError
	var mme *checkpoint.ModeMismatchError
	var ve *checkpoint.VersionError
	return errors.As(err, &fpe) || errors.As(err, &mme) || errors.As(err, &ve)
}
