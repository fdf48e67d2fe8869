package checkpoint

import (
	"errors"
	"fmt"
)

// ErrInjectedCrash is returned by Journal.Append when a CrashPlan
// fires. The process is modelled as dead from that point: the append
// did not happen (or only its synced prefix survived), and every later
// append fails the same way. Callers treat it like a host crash — the
// run aborts and must be resumed.
var ErrInjectedCrash = errors.New("checkpoint: injected crash")

// Window names the instant within a commit where an injected crash
// fires. The three windows cover the commit-hook ordering's distinct
// failure modes (see DESIGN §2e for the matrix).
type Window int

const (
	// WindowBeforeAppend crashes before anything is written: the batch
	// was computed but never journaled. Resume re-executes it.
	WindowBeforeAppend Window = iota
	// WindowAfterAppend crashes after write(2) but before fsync: the
	// record may survive only partially (the simulation keeps a torn
	// prefix). Resume drops the torn tail and re-executes the batch.
	WindowAfterAppend
	// WindowAfterSync crashes after the record is durable but before
	// the merge is acknowledged to the scheduler: the most dangerous
	// window, because a naive resume would run the batch again and
	// merge it twice. Replay-then-skip makes it exactly-once.
	WindowAfterSync
)

func (w Window) String() string {
	switch w {
	case WindowBeforeAppend:
		return "before-append"
	case WindowAfterAppend:
		return "after-append"
	case WindowAfterSync:
		return "after-sync"
	}
	return fmt.Sprintf("window(%d)", int(w))
}

// CrashPlan schedules one injected crash: at the N-th append (0-based,
// in journal commit order), in the given window. A nil plan never
// fires.
type CrashPlan struct {
	// After is the append ordinal at which the crash fires.
	After int
	// Window is the instant within that append.
	Window Window
}

// CrashAfter returns a plan that crashes at append n in window w.
func CrashAfter(n int, w Window) *CrashPlan {
	return &CrashPlan{After: n, Window: w}
}

func (p *CrashPlan) fires(ordinal int, w Window) bool {
	return p != nil && p.After == ordinal && p.Window == w
}
