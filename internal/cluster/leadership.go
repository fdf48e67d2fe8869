package cluster

import (
	"context"
	"time"
)

// AcquireLeadership blocks until the caller holds the cluster
// leadership lease, returning a release func, or returns ctx's error
// once ctx is done. A standby cluster run (Config.Standby) parks on
// this before it resumes the primary's journal; the file-backed
// implementation (AcquireFileLeadership)
// keys the lease to an OS advisory lock that the kernel revokes the
// instant the holder dies, so a crashed primary frees the lease without
// any timeout tuning. Tests substitute a channel-backed implementation.
type AcquireLeadership func(ctx context.Context) (release func(), err error)

// DefaultLeadershipPoll is how often AcquireFileLeadership retries a
// contended lock.
const DefaultLeadershipPoll = 50 * time.Millisecond

// Lease is a hot standby's wait for leadership (Config.Standby); the
// coordinator never reads it. Acquire nil means an exclusive flock on
// "<journal>.lock" (AcquireFileLeadership). Poll paces the look for an
// absent journal (on the run's Policy.Clock) and the default lock
// retry; zero means DefaultLeadershipPoll.
type Lease struct {
	Acquire AcquireLeadership
	Poll    time.Duration
}
