package cluster

import (
	"context"
	"time"
)

// AcquireLeadership blocks until the caller holds the cluster
// leadership lease, returning a release func, or returns ctx's error
// once ctx is done. The pipeline's standby run path parks on this
// before it resumes the primary's journal; the file-backed
// implementation (AcquireFileLeadership)
// keys the lease to an OS advisory lock that the kernel revokes the
// instant the holder dies, so a crashed primary frees the lease without
// any timeout tuning. Tests substitute a channel-backed implementation.
type AcquireLeadership func(ctx context.Context) (release func(), err error)

// DefaultLeadershipPoll is how often AcquireFileLeadership retries a
// contended lock.
const DefaultLeadershipPoll = 50 * time.Millisecond
