// Package dispatch is the fault-tolerant batch dispatch core under
// gpu.Scheduler and cluster.Coordinator: the bounded pending list, the
// one-shot commit token, backoff, retry budget, breaker, host fallback
// and drain, written once. Executors pull: each claims an Attempt, runs
// it, and reports one Outcome, to which Settle applies the policy.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
)

// Batch is one unit of streamed work: a parsed slice of the input
// database tagged with its global position in the stream.
type Batch struct {
	Seq    int           // ordinal in stream order
	Offset int           // global index of the first sequence; hit indexes rebase by it
	DB     *seq.Database // the batch's sequences
	Trace  *obs.Span     // span of the attempt running the batch (nil: untraced)
	commit *atomic.Bool  // merge token of every attempt, until a watchdog burns it
}

// Commit claims the batch's merge token: exactly one caller across
// every attempt at the batch (any executor, epoch, or the host) gets
// true, and only it may merge. A Batch built outside a run always
// commits.
func (b Batch) Commit() bool {
	return b.commit == nil || b.commit.CompareAndSwap(false, true)
}

// Clock abstracts time so backoff, watchdog and heartbeat tests run
// without real sleeps. A nil Clock is the wall clock (OrWall).
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// OrWall returns c, or the wall clock when c is nil.
func OrWall(c Clock) Clock {
	if c == nil {
		return wallClock{}
	}
	return c
}

// ErrDraining is returned by submit once Config.Drain closes; a
// producer that returns it stops the run cleanly.
var ErrDraining = errors.New("dispatch: draining")

// Defaults for the zero Policy fields.
const (
	DefaultMaxRetries      = 3
	DefaultQuarantineAfter = 3
	DefaultBackoffBase     = 5 * time.Millisecond
	DefaultBackoffCap      = 500 * time.Millisecond
)

// Policy is a run's fault policy: MaxRetries Retry outcomes per batch,
// QuarantineAfter consecutive strikes per executor, and a backoff of
// base, 2*base, ... up to the cap. Zero fields take the defaults; a
// negative MaxRetries or QuarantineAfter disables retrying or the
// breaker.
type Policy struct {
	MaxRetries      int
	QuarantineAfter int
	BackoffBase     time.Duration
	BackoffCap      time.Duration
	Clock           Clock
}

// Budget is the resolved retry budget.
func (p Policy) Budget() int { return resolve(p.MaxRetries, DefaultMaxRetries) }

// Trip is the resolved breaker threshold (0: never trips).
func (p Policy) Trip() int { return resolve(p.QuarantineAfter, DefaultQuarantineAfter) }

func resolve(v, def int) int {
	if v == 0 {
		return def
	}
	return max(v, 0)
}

// Backoff is the delay before retry number try (1-based).
func (p Policy) Backoff(try int) time.Duration {
	base, limit := p.BackoffBase, p.BackoffCap
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if limit <= 0 {
		limit = DefaultBackoffCap
	}
	if d := base << min(try-1, 20); d > 0 && d < limit {
		return d
	}
	return limit
}

// Breaker is the consecutive-strike breaker over n executors: Strike
// charges one, Done clears them, and a trip is the caller's cue to
// Quarantine, which is for good. Run keeps one per run under its lock;
// serve's device pool keeps one for the life of the process. It is not
// safe for concurrent use.
type Breaker struct {
	trip    int // consecutive strikes that trip (0: never)
	consec  []int
	quar    []bool
	healthy int
}

// NewBreaker returns a Breaker over n healthy executors that trips at
// trip consecutive strikes; trip <= 0 never trips.
func NewBreaker(n, trip int) *Breaker {
	return &Breaker{trip: trip, consec: make([]int, n), quar: make([]bool, n), healthy: n}
}

// Strike charges executor i a strike and returns its consecutive
// strikes and whether they reach the trip.
func (b *Breaker) Strike(i int) (strikes int, tripped bool) {
	b.consec[i]++
	return b.consec[i], b.trip > 0 && b.consec[i] >= b.trip
}

// Done clears executor i's strikes after a clean outcome.
func (b *Breaker) Done(i int) { b.consec[i] = 0 }

// Quarantine takes executor i out of service and reports whether it
// was in service.
func (b *Breaker) Quarantine(i int) bool {
	if b.quar[i] {
		return false
	}
	b.quar[i] = true
	b.healthy--
	return true
}

// Quarantined reports whether executor i left service.
func (b *Breaker) Quarantined(i int) bool { return b.quar[i] }

// Healthy is the number of executors in service.
func (b *Breaker) Healthy() int { return b.healthy }

// Attempt is one batch's place in the pending list.
type Attempt struct {
	Batch Batch
	Tries int // budgeted failures so far
	excl  int // executor that last failed it (-1: none)
}

// Moved reports whether executor i took the attempt over from another
// executor that failed it.
func (a *Attempt) Moved(i int) bool { return a.excl >= 0 && a.excl != i }

// Outcome is what an executor reports for one claimed attempt.
type Outcome int

// Requeues are off budget except Retry's; a Retry whose strike trips
// the breaker is requeued off budget too, since the trip is the
// executor's health, not the batch's fault.
const (
	Done     Outcome = iota // merged, or lost the token to one that did; strikes reset
	Retry                   // strike; spend a retry and requeue after backoff; err ends the run past budget
	Requeue                 // the executor's fault alone (a blown deadline): requeue, strike
	Lost                    // quarantine the executor, requeue
	Burned                  // Lost after a watchdog claimed the token: requeue with a fresh one
	LateDone                // merged past its watchdog: resolve, quarantine
	Rerun                   // corrupt result: strike, re-execute through Config.Rerun
	Fatal                   // abort the run with err
)

// Config shapes one Run.
//
// Fallback, when non-nil, is the host executor started once the last
// executor is quarantined; Rerun re-executes Rerun outcomes. Both merge
// their own result guarded by Batch.Commit and report whether it
// succeeded. Without a Fallback, losing the last executor with work
// outstanding fails the run with ErrAllLost.
type Config struct {
	Name       string // prefixes the run's own errors
	Executors  int
	QueueDepth int // bounds unclaimed batches (0: two per executor); requeues are exempt
	Policy     Policy
	Drain      <-chan struct{} // once closed, submit refuses with ErrDraining
	Fallback   func(b Batch) (committed bool, err error)
	Rerun      func(b Batch) (committed bool, err error)
	ErrAllLost error
	// Quarantined, when non-nil, learns under the run's lock that
	// executor i left service, leaving healthy executors.
	Quarantined func(i, healthy int)
}

// Totals is what a Run counts besides its executors' own accounting.
type Totals struct {
	Wall     time.Duration
	Batches  int
	Seqs     int
	Residues int64
	Drained  bool // a drain refused at least one submit
	// Merged host executions: Fallback's, and Rerun's; FallbackLost
	// counts Fallback's attempts that lost the token.
	Fallbacks, FallbackLost, Reruns int
}

// Run is one dispatch. Methods marked "lock held" run between Lock and
// Unlock; executors keep their accounting under the same lock, so a
// claim or a settle is one critical section.
type Run struct {
	sync.Mutex
	cfg   Config
	clock Clock
	depth int
	cond  sync.Cond
	wg    sync.WaitGroup
	tot   Totals

	pending []*Attempt
	active  int // claimed, unresolved attempts; one in backoff may still requeue
	closed  bool
	aborted bool
	err     error
	abortCh chan struct{}

	draining  bool
	br        *Breaker
	hostOn    bool
	startHost func() // the schedule enumerator drives the host by hand
}

// New returns an idle Run for cfg.
func New(cfg Config) *Run {
	r := &Run{cfg: cfg, clock: OrWall(cfg.Policy.Clock), depth: cfg.QueueDepth,
		abortCh: make(chan struct{}), br: NewBreaker(cfg.Executors, cfg.Policy.Trip())}
	if r.depth <= 0 {
		r.depth = 2 * cfg.Executors
	}
	r.cond.L = &r.Mutex
	r.startHost = func() { r.Go(r.host) }
	return r
}

// Go runs executor f on its own goroutine; Feed waits for it.
func (r *Run) Go(f func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		f()
	}()
}

// Aborted closes when the run fails.
func (r *Run) Aborted() <-chan struct{} { return r.abortCh }

// Fail aborts the run with err unless it already failed.
func (r *Run) Fail(err error) {
	r.Lock()
	r.fail(err)
	r.Unlock()
}

func (r *Run) fail(err error) {
	if !r.aborted {
		r.aborted, r.err = true, err
		close(r.abortCh)
	}
	r.cond.Broadcast()
}

func (r *Run) done() bool { return r.closed && len(r.pending) == 0 && r.active == 0 }

// Stopped (lock held) reports that executor i is done: the run aborted,
// i was quarantined, or every batch is resolved.
func (r *Run) Stopped(i int) bool { return r.aborted || r.br.Quarantined(i) || r.done() }

// Quarantined (lock held) reports whether executor i left service.
func (r *Run) Quarantined(i int) bool { return r.br.Quarantined(i) }

// Wake (lock held) makes every waiting Claim re-check.
func (r *Run) Wake() { r.cond.Broadcast() }

// Claim (lock held) blocks until executor i can take a pending attempt,
// or returns nil once i is Stopped or gone reports true. The executor
// that just failed an attempt may not retake it while another is
// healthy; the host (i < 0) is exempt.
func (r *Run) Claim(i int, gone func() bool) *Attempt {
	for {
		if att, stop := r.next(i, gone); att != nil || stop {
			return att
		}
		r.cond.Wait()
	}
}

func (r *Run) next(i int, gone func() bool) (att *Attempt, stop bool) {
	if r.aborted || i >= 0 && r.br.Quarantined(i) || gone != nil && gone() {
		return nil, true
	}
	for k, a := range r.pending {
		if i >= 0 && a.excl == i && r.br.Healthy() > 1 {
			continue
		}
		r.pending = append(r.pending[:k], r.pending[k+1:]...)
		r.active++
		r.cond.Broadcast() // pending shrank: wake the producer
		return a, false
	}
	return nil, r.done()
}

// Requeue (lock held) returns a claimed attempt to the pending list off
// budget, excluding failedOn.
func (r *Run) Requeue(att *Attempt, failedOn int) {
	att.excl = failedOn
	r.pending = append(r.pending, att)
	r.active--
	r.cond.Broadcast()
}

func (r *Run) resolve() {
	r.active--
	r.cond.Broadcast()
}

// Quarantine (lock held) takes executor i out of service. Losing the
// last one starts the host fallback or, without one, fails the run if
// work is outstanding.
func (r *Run) Quarantine(i int) {
	if !r.br.Quarantine(i) {
		return
	}
	if r.cfg.Quarantined != nil {
		r.cfg.Quarantined(i, r.br.Healthy())
	}
	switch {
	case r.br.Healthy() > 0:
	case r.cfg.Fallback != nil:
		if !r.hostOn {
			r.hostOn = true
			r.startHost()
		}
	case !r.done():
		r.fail(fmt.Errorf("%s: %d batches outstanding: %w", r.cfg.Name, len(r.pending)+r.active, r.cfg.ErrAllLost))
	}
	r.cond.Broadcast()
}

// Strike (lock held) charges executor i a breaker strike, quarantining
// it on a trip, and returns its consecutive strikes.
func (r *Run) Strike(i int) (strikes int, tripped bool) {
	if strikes, tripped = r.br.Strike(i); tripped {
		r.Quarantine(i)
	}
	return strikes, tripped
}

// Settle (lock held) applies the policy to executor i's outcome for
// att and reports whether i may claim again. It releases the lock while
// it backs off and while a Rerun executes.
func (r *Run) Settle(i int, att *Attempt, out Outcome, err error) bool {
	switch out {
	case Done:
		r.br.Done(i)
		r.resolve()
		return true
	case LateDone:
		r.resolve()
		r.Quarantine(i)
		return false
	case Burned:
		att.Batch.commit = new(atomic.Bool)
		fallthrough
	case Lost:
		r.Quarantine(i)
		r.Requeue(att, i)
		return false
	case Requeue:
		r.Requeue(att, i)
		_, tripped := r.Strike(i)
		return !tripped
	case Retry:
		if _, tripped := r.Strike(i); tripped {
			r.Requeue(att, i) // the executor's health, not the batch's fault
			return false
		}
		if att.Tries++; att.Tries > r.cfg.Policy.Budget() {
			break
		}
		r.Unlock() // active through the backoff, so the stream is not drained
		select {
		case <-r.clock.After(r.cfg.Policy.Backoff(att.Tries)):
		case <-r.abortCh:
			r.Lock()
			return false
		}
		r.Lock()
		r.Requeue(att, i)
		return true
	case Rerun:
		_, tripped := r.Strike(i)
		r.Unlock()
		committed, rerr := r.cfg.Rerun(att.Batch)
		r.Lock()
		if err = rerr; err == nil {
			r.resolve()
			if committed {
				r.tot.Reruns++
			}
			return !tripped
		}
	}
	r.resolve()
	r.fail(err)
	return false
}

// host is the fallback executor: it drains the rest of the stream
// through Config.Fallback once every executor is quarantined.
func (r *Run) host() {
	r.Lock()
	defer r.Unlock()
	for att := r.Claim(-1, nil); att != nil; att = r.Claim(-1, nil) {
		r.Unlock()
		committed, err := r.cfg.Fallback(att.Batch)
		r.Lock()
		if !r.settleHost(committed, err) {
			return
		}
	}
}

func (r *Run) settleHost(committed bool, err error) bool {
	r.resolve()
	if err != nil {
		r.fail(err)
		return false
	}
	if committed {
		r.tot.Fallbacks++
	} else {
		r.tot.FallbackLost++
	}
	return true
}

// submit queues one batch with a fresh merge token, blocking while
// QueueDepth batches are unclaimed.
func (r *Run) submit(b Batch) error {
	if b.DB == nil {
		return fmt.Errorf("%s: submitted batch %d has no database", r.cfg.Name, b.Seq)
	}
	r.Lock()
	defer r.Unlock()
	select { // a drain the watcher has not seen yet still refuses

	case <-r.cfg.Drain:
		r.draining = true
	default:
	}
	for len(r.pending) >= r.depth && !r.aborted && !r.draining {
		r.cond.Wait()
	}
	if r.aborted {
		return fmt.Errorf("%s: run aborted: %w", r.cfg.Name, r.err)
	}
	if r.draining {
		r.tot.Drained = true
		return ErrDraining
	}
	b.Trace, b.commit = nil, new(atomic.Bool)
	r.pending = append(r.pending, &Attempt{Batch: b, excl: -1})
	r.tot.Batches++
	r.tot.Seqs += b.DB.NumSeqs()
	r.tot.Residues += b.DB.TotalResidues()
	r.cond.Broadcast()
	return nil
}

// close marks the stream complete, failing the run on a producer error.
func (r *Run) close(perr error) {
	r.Lock()
	defer r.Unlock()
	if r.closed = true; perr != nil && !errors.Is(perr, ErrDraining) {
		r.fail(perr)
	}
	r.cond.Broadcast()
}

// Feed runs produce on the calling goroutine (one submit per batch, in
// stream order; submit blocks for backpressure), then waits for every
// executor. It returns the totals, or the first fatal error from
// produce, an executor, or ctx.
func (r *Run) Feed(ctx context.Context, produce func(submit func(b Batch) error) error) (Totals, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	// Cancellation aborts; a drain only makes submit refuse.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		for drain := r.cfg.Drain; ; {
			select {
			case <-ctx.Done():
				r.Fail(ctx.Err())
				return
			case <-drain:
				r.Lock()
				r.draining = true
				r.cond.Broadcast()
				r.Unlock()
				drain = nil
			case <-watchDone:
				return
			}
		}
	}()
	r.close(produce(r.submit))
	r.wg.Wait()
	r.tot.Wall = time.Since(start)
	r.Lock()
	defer r.Unlock()
	return r.tot, r.err
}
