package dispatch

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hmmer3gpu/internal/seq"
)

// The schedule enumerator drives one Run from the test goroutine. Three
// batches are submitted; then two executors, the producer's close and
// the host fallback take turns, and every claimed attempt ends in each
// outcome in choices. It explores every interleaving and outcome
// sequence with at most maxFaults non-ok outcomes and checks every
// schedule for:
//
//   - exactly one successful Commit per batch (at most one on abort);
//   - no claim by a quarantined executor, and no claim of a batch by
//     the executor that just failed it while another is healthy;
//   - at most Budget budgeted retries per batch, and a breaker trip
//     that spends none;
//   - an end with every batch committed, or with the first fatal error.
const (
	nExec     = 2
	nBatch    = 3
	maxFaults = 2
)

var (
	errTransient = errors.New("transient fault")
	errFatal     = errors.New("fatal fault")
)

type instantClock struct{}

func (instantClock) Now() time.Time { return time.Unix(0, 0) }

func (instantClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Unix(0, 0)
	return ch
}

// world is one schedule in progress: the Run plus the test's own model
// of where every batch is, which the core's answers are checked against.
type world struct {
	t      *testing.T
	r      *Run
	policy Policy
	trace  []string

	faults int
	closed bool
	fatal  error // the first error the run must end with

	commits  [nBatch]int
	pending  [nBatch]bool
	lastFail [nBatch]int // executor that last failed the batch (-1: none)
	held     [nExec]*Attempt
	exited   [nExec]bool
	quar     [nExec]bool

	hostOn   bool
	hostHeld *Attempt
	late     []Batch // batches whose watchdog burned the token; their late commit must lose
}

func newWorld(t *testing.T) *world {
	w := &world{t: t, policy: Policy{MaxRetries: 1, QuarantineAfter: 2, Clock: instantClock{}}}
	for b := range w.lastFail {
		w.lastFail[b] = -1
	}
	w.r = New(Config{
		Name:       "enum",
		Executors:  nExec,
		QueueDepth: nBatch,
		Policy:     w.policy,
		Fallback:   w.hostRun,
		Rerun:      w.hostRun,
		ErrAllLost: errors.New("all lost"),
		Quarantined: func(i, healthy int) {
			w.quar[i] = true
		},
	})
	w.r.startHost = func() { w.hostOn = true }
	for b := 0; b < nBatch; b++ {
		w.submit(b)
	}
	return w
}

func (w *world) failf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("schedule %v: %s", w.trace, fmt.Sprintf(format, args...))
}

// hostRun is the host executor for both Fallback and Rerun.
func (w *world) hostRun(b Batch) (bool, error) {
	if !b.Commit() {
		return false, nil
	}
	w.commits[b.Seq]++
	return true, nil
}

func (w *world) healthy() int {
	n := 0
	for _, q := range w.quar {
		if !q {
			n++
		}
	}
	return n
}

// claimable reports whether the model lets executor e (-1: host) take
// some pending batch.
func (w *world) claimable(e int) bool {
	for b, p := range w.pending {
		if p && (e < 0 || w.lastFail[b] != e || w.healthy() <= 1) {
			return true
		}
	}
	return false
}

type action struct {
	name string
	do   func()
}

type outcomeChoice struct {
	name  string
	out   Outcome
	fault bool
}

var choices = []outcomeChoice{
	{"ok", Done, false},
	{"transient", Retry, true},
	{"lost", Lost, true},
	{"burn", Burned, true},
	{"rerun", Rerun, true},
	{"fatal", Fatal, true},
}

// actions lists what may happen next, in a fixed order.
func (w *world) actions() []action {
	var acts []action
	aborted := w.r.aborted
	if !w.closed {
		acts = append(acts, action{"close", w.close})
	}
	if aborted {
		// Executors stop claiming and the run is over once the producer
		// has seen it.
		return acts
	}
	for e := 0; e < nExec; e++ {
		if w.exited[e] {
			continue
		}
		if w.quar[e] {
			w.failf("executor %d kept running after its quarantine", e)
		}
		if w.held[e] == nil {
			if w.claimable(e) {
				acts = append(acts, action{fmt.Sprintf("claim%d", e), func() { w.claim(e) }})
			} else {
				w.mustWait(e)
			}
			continue
		}
		for _, c := range choices {
			if c.fault && w.faults == maxFaults {
				continue
			}
			acts = append(acts, action{fmt.Sprintf("%d:%s", e, c.name), func() { w.settle(e, c) }})
		}
	}
	if w.hostOn {
		if w.hostHeld == nil && w.claimable(-1) {
			acts = append(acts, action{"host-claim", w.hostClaim})
		} else if w.hostHeld != nil {
			acts = append(acts, action{"host-run", w.hostSettle})
		}
	}
	return acts
}

func (w *world) submit(b int) {
	db := seq.NewDatabase("enum")
	db.Add(&seq.Sequence{Name: "s", Residues: []byte{1, 2, 3}})
	if err := w.r.submit(Batch{Seq: b, Offset: b, DB: db}); err != nil {
		w.failf("submit: %v", err)
	}
	w.pending[b] = true
}

func (w *world) close() {
	w.closed = true
	w.r.close(nil)
}

func (w *world) claim(e int) {
	w.r.Lock()
	att, stop := w.r.next(e, nil)
	w.r.Unlock()
	if att == nil {
		w.failf("executor %d could not claim a batch it may take (stop=%v)", e, stop)
	}
	b := att.Batch.Seq
	if !w.pending[b] {
		w.failf("executor %d claimed batch %d, which is not pending", e, b)
	}
	if w.lastFail[b] == e && w.healthy() > 1 {
		w.failf("executor %d reclaimed batch %d it just failed while another executor is healthy", e, b)
	}
	w.pending[b] = false
	w.held[e] = att
}

// mustWait checks that the core offers executor e nothing when the
// model says every pending batch is barred to it.
func (w *world) mustWait(e int) {
	w.r.Lock()
	att, _ := w.r.next(e, nil)
	w.r.Unlock()
	if att != nil {
		w.failf("executor %d claimed batch %d it just failed while another executor is healthy", e, att.Batch.Seq)
	}
}

func (w *world) settle(e int, c outcomeChoice) {
	att := w.held[e]
	b := att.Batch
	w.held[e] = nil
	if c.fault {
		w.faults++
	}
	var err error
	switch c.out {
	case Done, LateDone:
		if b.Commit() {
			w.commits[b.Seq]++
		}
	case Burned:
		// The watchdog claims the token to fence the abandoned attempt.
		if !b.Commit() {
			w.failf("watchdog found batch %d's token already claimed", b.Seq)
		}
		w.late = append(w.late, b)
	case Retry:
		err = fmt.Errorf("batch %d spent its budget: %w", b.Seq, errTransient)
	case Fatal:
		err = errFatal
	}
	tries, wasQuar := att.Tries, w.quar[e]
	w.r.Lock()
	next := w.r.Settle(e, att, c.out, err)
	aborted := w.r.aborted
	w.r.Unlock()
	tripped := w.quar[e] && !wasQuar
	if tripped && next {
		w.failf("executor %d was quarantined but may claim again", e)
	}
	w.exited[e] = !next

	requeued := false
	switch c.out {
	case Retry:
		switch {
		case tripped:
			if att.Tries != tries {
				w.failf("breaker trip on batch %d spent retry budget (%d -> %d)", b.Seq, tries, att.Tries)
			}
			requeued = true
		case att.Tries > w.policy.Budget():
			if !aborted {
				w.failf("batch %d exceeded its budget (%d tries) without ending the run", b.Seq, att.Tries)
			}
			w.recordFatal(err)
		default:
			requeued = true
		}
	case Requeue, Lost, Burned:
		requeued = true
	case Fatal:
		w.recordFatal(err)
	}
	if requeued && !aborted {
		w.pending[b.Seq] = true
		w.lastFail[b.Seq] = e
	}
}

func (w *world) recordFatal(err error) {
	if w.fatal == nil {
		w.fatal = err
	}
}

func (w *world) hostClaim() {
	w.r.Lock()
	att, _ := w.r.next(-1, nil)
	w.r.Unlock()
	if att == nil {
		w.failf("host could not claim a pending batch")
	}
	w.pending[att.Batch.Seq] = false
	w.hostHeld = att
}

func (w *world) hostSettle() {
	att := w.hostHeld
	w.hostHeld = nil
	committed, err := w.hostRun(att.Batch)
	w.r.Lock()
	w.r.settleHost(committed, err)
	w.r.Unlock()
}

// check holds after every step.
func (w *world) check() {
	for b, n := range w.commits {
		if n > 1 {
			w.failf("batch %d committed %d times", b, n)
		}
	}
}

// end checks a schedule with nothing left to do.
func (w *world) end() {
	r := w.r
	for _, b := range w.late {
		if b.Commit() {
			w.failf("the abandoned attempt at batch %d committed after its watchdog burned the token", b.Seq)
		}
	}
	if r.aborted {
		if w.fatal == nil || !errors.Is(r.err, w.fatal) {
			w.failf("run ended with %v, want the first fatal error %v", r.err, w.fatal)
		}
		return
	}
	if w.fatal != nil {
		w.failf("run survived fatal error %v", w.fatal)
	}
	if !r.done() {
		w.failf("stalled: closed=%v pending=%d active=%d healthy=%d host=%v",
			r.closed, len(r.pending), r.active, r.br.Healthy(), w.hostOn)
	}
	for b, n := range w.commits {
		if n != 1 {
			w.failf("run completed with batch %d committed %d times", b, n)
		}
	}
}

// explore replays prefix on a fresh world, then branches on every
// enabled action; it returns the number of complete schedules.
func explore(t *testing.T, prefix []int) int {
	w := newWorld(t)
	for _, c := range prefix {
		act := w.actions()[c]
		w.trace = append(w.trace, act.name)
		act.do()
		w.check()
	}
	acts := w.actions()
	if len(acts) == 0 {
		w.end()
		return 1
	}
	n := 0
	for i := range acts {
		n += explore(t, append(prefix[:len(prefix):len(prefix)], i))
	}
	return n
}

func TestEnumerateSchedules(t *testing.T) {
	n := explore(t, nil)
	t.Logf("explored %d schedules (%d executors, %d batches, up to %d faults)", n, nExec, nBatch, maxFaults)
}
